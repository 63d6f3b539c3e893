package kgsl

import (
	"fmt"
	"reflect"
	"testing"

	"gpuleak/internal/adreno"
	"gpuleak/internal/render"
	"gpuleak/internal/sim"
)

// fuzzKeys are the counters a fuzzed read buffer draws from: the Table-1
// set, known countables outside it (reserved and not) and keys the driver
// does not know.
var fuzzKeys = append(append([]adreno.CounterKey{}, adreno.Selected...),
	adreno.CounterKey{Group: adreno.GroupLRZ, Countable: 0}, // reserved, outside Table 1
	adreno.CounterKey{Group: adreno.GroupRAS, Countable: 9}, // reserved, outside Table 1
	adreno.CounterKey{Group: adreno.GroupSP, Countable: 1},  // known, never reserved
	adreno.CounterKey{Group: 0x42, Countable: 3},            // unknown group
	adreno.CounterKey{Group: adreno.GroupVPC, Countable: 99},
)

// Fuzz mode bits.
const (
	fuzzDeny       = 1 << iota // denyLRZ policy
	fuzzObfuscate              // key- and time-dependent obfuscator
	fuzzLatency                // deterministic read latency
	fuzzUnreserved             // leave Selected[mode>>4 % 11] unreserved
)

type xorObfuscator struct{}

func (xorObfuscator) Obfuscate(k adreno.CounterKey, v uint64, t sim.Time) uint64 {
	return v ^ uint64(t)*uint64(k.Countable+1)
}

// fuzzFile opens a file on a GPU with overlapping frames of distinct
// stats, reserved and configured as mode says.
func fuzzFile(t *testing.T, mode uint8) *File {
	gpu := adreno.NewGPU(adreno.A640)
	for i, at := range []sim.Time{1000, 1500, 4000, 9000} {
		n := uint64(i + 1)
		gpu.Submit(adreno.Frame{Start: at, End: at + 2000, Stats: render.FrameStats{
			VisiblePrimAfterLRZ: 1637 * n, FullTiles8x8: 90 * n, PartialTiles8x8: 41 + n,
			VisiblePixelAfterLRZ: 90000 * n, SupertileActiveCycles: 777 * n, SuperTiles: 12 * n,
			Tiles8x4: 333 * n, FullyCovered8x4: 201 * n, PCPrimitives: 1700 * n,
			SPComponents: 5100 * n, LRZAssignPrimitives: 1650 * n, TotalPixels: 90000 * n,
		}})
	}
	d := NewDevice(gpu)
	f := openTestFile(t, d)
	unreserved := -1
	if mode&fuzzUnreserved != 0 {
		unreserved = int(mode>>4) % adreno.NumSelected
	}
	for i, k := range fuzzKeys[:adreno.NumSelected+2] {
		if i == unreserved {
			continue
		}
		if err := f.Ioctl(0, IoctlPerfcounterGet, &PerfcounterGet{GroupID: k.Group, Countable: k.Countable}); err != nil {
			t.Fatalf("reserving %v: %v", k, err)
		}
	}
	if mode&fuzzDeny != 0 {
		d.SetPolicy(denyLRZ{})
	}
	if mode&fuzzObfuscate != 0 {
		d.SetObfuscator(xorObfuscator{})
	}
	if mode&fuzzLatency != 0 {
		d.ReadLatency = func(t sim.Time) sim.Time { return t + 37 + t%11 }
	}
	return f
}

// referenceRead is the per-entry read loop: one GPU.CounterValue call per
// buffer entry. The driver must return what it returns.
func referenceRead(f *File, t sim.Time, rd *PerfcounterRead) error {
	if len(rd.Reads) == 0 {
		return ErrInval
	}
	if f.dev.ReadLatency != nil {
		t = f.dev.ReadLatency(t)
	}
	for i := range rd.Reads {
		k := adreno.CounterKey{Group: rd.Reads[i].GroupID, Countable: rd.Reads[i].Countable}
		if _, n := f.dev.reserved(k); n == 0 {
			return ErrNotReserved
		}
		if f.dev.policy != nil {
			if err := f.dev.policy.AllowPerfcounterRead(f.ctx, k); err != nil {
				return fmt.Errorf("%w (counter %v)", err, k)
			}
		}
		v := f.dev.gpu.CounterValue(k, t)
		if f.dev.obfuscator != nil {
			v = f.dev.obfuscator.Obfuscate(k, v, t)
		}
		rd.Reads[i].Value = v
	}
	return nil
}

// sameErr reports whether two driver errors are the same errno with the
// same message.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// readBuffer builds a read buffer from fuzz bytes, one key per byte, with
// a sentinel in every value so unwritten entries compare too.
func readBuffer(entries []byte) PerfcounterRead {
	if len(entries) > 64 {
		entries = entries[:64]
	}
	rd := PerfcounterRead{Reads: make([]PerfcounterReadGroup, len(entries))}
	for i, b := range entries {
		k := fuzzKeys[int(b)%len(fuzzKeys)]
		rd.Reads[i] = PerfcounterReadGroup{GroupID: k.Group, Countable: k.Countable, Value: 0xdead0000 + uint64(i)}
	}
	return rd
}

// FuzzPerfcounterRead checks the PERFCOUNTER_READ ioctl, whose buffer is
// attacker-controlled, against the per-entry reference loop over
// arbitrary entry lists and read times: the same values written to the
// same entries, and the same error at the same entry.
func FuzzPerfcounterRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, entries []byte, at int64, mode uint8) {
		file := fuzzFile(t, mode)
		got, want := readBuffer(entries), readBuffer(entries)
		gotErr := file.Ioctl(sim.Time(at), IoctlPerfcounterRead, &got)
		wantErr := referenceRead(file, sim.Time(at), &want)
		if !sameErr(gotErr, wantErr) {
			t.Fatalf("ioctl error %v, reference %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got.Reads, want.Reads) {
			t.Fatalf("ioctl wrote %v, reference %v", got.Reads, want.Reads)
		}

		// ReadSelected is the same read over the Table-1 buffer.
		sel := PerfcounterRead{Reads: make([]PerfcounterReadGroup, adreno.NumSelected)}
		for i, k := range adreno.Selected {
			sel.Reads[i] = PerfcounterReadGroup{GroupID: k.Group, Countable: k.Countable}
		}
		wantErr = referenceRead(file, sim.Time(at), &sel)
		vals, gotErr := file.ReadSelected(sim.Time(at))
		if !sameErr(gotErr, wantErr) {
			t.Fatalf("ReadSelected error %v, reference %v", gotErr, wantErr)
		}
		if gotErr == nil {
			for i := range vals {
				if vals[i] != sel.Reads[i].Value {
					t.Fatalf("ReadSelected[%d] = %d, reference %d", i, vals[i], sel.Reads[i].Value)
				}
			}
		}
	})
}
