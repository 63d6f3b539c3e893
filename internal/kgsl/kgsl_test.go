package kgsl

import (
	"errors"
	"testing"

	"gpuleak/internal/adreno"
	"gpuleak/internal/render"
	"gpuleak/internal/sim"
)

func newTestDevice() *Device {
	gpu := adreno.NewGPU(adreno.A650)
	gpu.Submit(adreno.Frame{Start: 1000, End: 2000, Stats: render.FrameStats{
		VisiblePrimAfterLRZ: 1637, VisiblePixelAfterLRZ: 90000,
		PCPrimitives: 1700, TotalPixels: 90000,
	}})
	return NewDevice(gpu)
}

func openTestFile(t *testing.T, d *Device) *File {
	t.Helper()
	f, err := d.Open(UntrustedApp(1234))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return f
}

func TestRequestCodeEncoding(t *testing.T) {
	// _IOWR(0x09, 0x38, 16) = dir(3)<<30 | 16<<16 | 0x09<<8 | 0x38
	want := uint32(3)<<30 | 16<<16 | 0x09<<8 | 0x38
	if IoctlPerfcounterGet != want {
		t.Fatalf("GET code = %#x, want %#x", IoctlPerfcounterGet, want)
	}
	if IoctlPerfcounterRead&0xFF != 0x3B {
		t.Fatalf("READ nr = %#x, want 0x3B", IoctlPerfcounterRead&0xFF)
	}
	if (IoctlPerfcounterGet>>8)&0xFF != KGSLIocType {
		t.Fatal("ioc type byte wrong")
	}
}

func TestUnprivilegedOpenSucceeds(t *testing.T) {
	d := newTestDevice()
	f, err := d.Open(UntrustedApp(1))
	if err != nil {
		t.Fatalf("unprivileged open failed: %v", err)
	}
	defer f.Close()
}

func TestOpenDeniedBySELinux(t *testing.T) {
	d := newTestDevice()
	d.OpenDenied = true
	if _, err := d.Open(UntrustedApp(1)); !errors.Is(err, ErrDeviceAccess) {
		t.Fatalf("want ErrDeviceAccess, got %v", err)
	}
}

func TestReadRequiresReservation(t *testing.T) {
	d := newTestDevice()
	f := openTestFile(t, d)
	rd := PerfcounterRead{Reads: []PerfcounterReadGroup{{GroupID: adreno.GroupLRZ, Countable: adreno.LRZVisiblePrimAfterLRZ}}}
	if err := f.Ioctl(5000, IoctlPerfcounterRead, &rd); !errors.Is(err, ErrNotReserved) {
		t.Fatalf("want ErrNotReserved, got %v", err)
	}
}

func TestGetReadPutCycle(t *testing.T) {
	d := newTestDevice()
	f := openTestFile(t, d)

	get := PerfcounterGet{GroupID: adreno.GroupLRZ, Countable: adreno.LRZVisiblePrimAfterLRZ}
	if err := f.Ioctl(0, IoctlPerfcounterGet, &get); err != nil {
		t.Fatalf("GET: %v", err)
	}
	if get.OffsetLo == 0 {
		t.Fatal("GET did not return a register offset")
	}

	rd := PerfcounterRead{Reads: []PerfcounterReadGroup{{GroupID: adreno.GroupLRZ, Countable: adreno.LRZVisiblePrimAfterLRZ}}}
	if err := f.Ioctl(5000, IoctlPerfcounterRead, &rd); err != nil {
		t.Fatalf("READ: %v", err)
	}
	if rd.Reads[0].Value == 0 {
		t.Fatal("READ returned zero value")
	}

	put := PerfcounterPut{GroupID: adreno.GroupLRZ, Countable: adreno.LRZVisiblePrimAfterLRZ}
	if err := f.Ioctl(0, IoctlPerfcounterPut, &put); err != nil {
		t.Fatalf("PUT: %v", err)
	}
	// After PUT the counter is no longer reserved.
	if err := f.Ioctl(6000, IoctlPerfcounterRead, &rd); !errors.Is(err, ErrNotReserved) {
		t.Fatalf("read after PUT: %v", err)
	}
}

func TestGetUnknownCounter(t *testing.T) {
	d := newTestDevice()
	f := openTestFile(t, d)
	get := PerfcounterGet{GroupID: 0x33, Countable: 99}
	if err := f.Ioctl(0, IoctlPerfcounterGet, &get); !errors.Is(err, ErrNoEnt) {
		t.Fatalf("want ErrNoEnt, got %v", err)
	}
}

func TestPutWithoutGet(t *testing.T) {
	d := newTestDevice()
	f := openTestFile(t, d)
	put := PerfcounterPut{GroupID: adreno.GroupLRZ, Countable: adreno.LRZVisiblePrimAfterLRZ}
	if err := f.Ioctl(0, IoctlPerfcounterPut, &put); !errors.Is(err, ErrNotReserved) {
		t.Fatalf("want ErrNotReserved, got %v", err)
	}
}

func TestReadSeesFrameDelta(t *testing.T) {
	d := newTestDevice()
	f := openTestFile(t, d)
	if err := f.ReserveSelected(0); err != nil {
		t.Fatal(err)
	}
	before, err := f.ReadSelected(500) // before the frame
	if err != nil {
		t.Fatal(err)
	}
	after, err := f.ReadSelected(3000) // after the frame
	if err != nil {
		t.Fatal(err)
	}
	if d := after[0] - before[0]; d != 1637 {
		t.Fatalf("VISIBLE_PRIM delta = %d, want 1637", d)
	}
}

func TestReadLatencyShiftsSample(t *testing.T) {
	d := newTestDevice()
	d.ReadLatency = func(t sim.Time) sim.Time { return t + 1500 } // lands mid/after frame
	f := openTestFile(t, d)
	if err := f.ReserveSelected(0); err != nil {
		t.Fatal(err)
	}
	// Request at t=0 actually samples at t=1500, i.e. mid-frame: the value
	// must reflect a partial draw.
	v, err := f.ReadSelected(0)
	if err != nil {
		t.Fatal(err)
	}
	d.ReadLatency = nil
	base, _ := f.ReadSelected(0)
	delta := v[0] - base[0]
	if delta == 0 || delta == 1637 {
		t.Fatalf("latency-shifted read delta = %d, want partial", delta)
	}
}

type denyLRZ struct{}

func (denyLRZ) AllowPerfcounterRead(ctx ProcContext, k adreno.CounterKey) error {
	if k.Group == adreno.GroupLRZ && ctx.SELinuxContext == "u:r:untrusted_app:s0" {
		return ErrPerm
	}
	return nil
}

func TestPolicyBlocksRead(t *testing.T) {
	d := newTestDevice()
	d.SetPolicy(denyLRZ{})
	f := openTestFile(t, d)
	if err := f.ReserveSelected(0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadSelected(5000); !errors.Is(err, ErrPerm) {
		t.Fatalf("policy not enforced: %v", err)
	}
}

type plusOne struct{}

func (plusOne) Obfuscate(k adreno.CounterKey, v uint64, t sim.Time) uint64 { return v + 1 }

func TestObfuscatorApplied(t *testing.T) {
	d := newTestDevice()
	f := openTestFile(t, d)
	if err := f.ReserveSelected(0); err != nil {
		t.Fatal(err)
	}
	clean, _ := f.ReadSelected(5000)
	d.SetObfuscator(plusOne{})
	fuzzed, _ := f.ReadSelected(5000)
	for i := range clean {
		if fuzzed[i] != clean[i]+1 {
			t.Fatalf("obfuscator not applied at %d: %d vs %d", i, fuzzed[i], clean[i])
		}
	}
}

func TestQueryCountables(t *testing.T) {
	d := newTestDevice()
	f := openTestFile(t, d)
	q := PerfcounterQuery{GroupID: adreno.GroupLRZ}
	if err := f.Ioctl(0, IoctlPerfcounterQuery, &q); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range q.Countables {
		if c == 13 {
			found = true
		}
	}
	if !found {
		t.Fatalf("query missing countable 13: %v", q.Countables)
	}
	// MaxCounters truncates.
	q2 := PerfcounterQuery{GroupID: adreno.GroupLRZ, MaxCounters: 2}
	if err := f.Ioctl(0, IoctlPerfcounterQuery, &q2); err != nil {
		t.Fatal(err)
	}
	if len(q2.Countables) != 2 {
		t.Fatalf("MaxCounters not honored: %d", len(q2.Countables))
	}
}

func TestUnknownRequest(t *testing.T) {
	d := newTestDevice()
	f := openTestFile(t, d)
	if err := f.Ioctl(0, 0xDEAD, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("want ErrBadRequest, got %v", err)
	}
}

func TestWrongArgType(t *testing.T) {
	d := newTestDevice()
	f := openTestFile(t, d)
	if err := f.Ioctl(0, IoctlPerfcounterGet, &PerfcounterRead{}); !errors.Is(err, ErrInval) {
		t.Fatalf("want ErrInval, got %v", err)
	}
}

func TestClosedFile(t *testing.T) {
	d := newTestDevice()
	f := openTestFile(t, d)
	f.Close()
	get := PerfcounterGet{GroupID: adreno.GroupLRZ, Countable: adreno.LRZVisiblePrimAfterLRZ}
	if err := f.Ioctl(0, IoctlPerfcounterGet, &get); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestEmptyReadBuffer(t *testing.T) {
	d := newTestDevice()
	f := openTestFile(t, d)
	if err := f.Ioctl(0, IoctlPerfcounterRead, &PerfcounterRead{}); !errors.Is(err, ErrInval) {
		t.Fatalf("want ErrInval, got %v", err)
	}
}

func TestIoctlCountTracksCalls(t *testing.T) {
	d := newTestDevice()
	f := openTestFile(t, d)
	if err := f.ReserveSelected(0); err != nil {
		t.Fatal(err)
	}
	n0 := d.IoctlCount()
	for i := 0; i < 10; i++ {
		if _, err := f.ReadSelected(sim.Time(i) * 8000); err != nil {
			t.Fatal(err)
		}
	}
	if d.IoctlCount()-n0 != 10 {
		t.Fatalf("ioctl count delta = %d, want 10", d.IoctlCount()-n0)
	}
}

func TestBusyPercentage(t *testing.T) {
	gpu := adreno.NewGPU(adreno.A650)
	// 50 ms of drawing in the last 100 ms.
	gpu.Submit(adreno.Frame{Start: 0, End: 50 * sim.Millisecond, Stats: render.FrameStats{TotalPixels: 1}})
	d := NewDevice(gpu)
	got := d.BusyPercentage(100 * sim.Millisecond)
	if got < 49 || got > 51 {
		t.Fatalf("busy%% = %v, want ~50", got)
	}
}

func TestReservationRefcount(t *testing.T) {
	d := newTestDevice()
	f := openTestFile(t, d)
	get := PerfcounterGet{GroupID: adreno.GroupLRZ, Countable: adreno.LRZVisiblePrimAfterLRZ}
	if err := f.Ioctl(0, IoctlPerfcounterGet, &get); err != nil {
		t.Fatal(err)
	}
	if err := f.Ioctl(0, IoctlPerfcounterGet, &get); err != nil {
		t.Fatal(err)
	}
	put := PerfcounterPut{GroupID: adreno.GroupLRZ, Countable: adreno.LRZVisiblePrimAfterLRZ}
	if err := f.Ioctl(0, IoctlPerfcounterPut, &put); err != nil {
		t.Fatal(err)
	}
	// One reference remains: reads still succeed.
	rd := PerfcounterRead{Reads: []PerfcounterReadGroup{{GroupID: adreno.GroupLRZ, Countable: adreno.LRZVisiblePrimAfterLRZ}}}
	if err := f.Ioctl(5000, IoctlPerfcounterRead, &rd); err != nil {
		t.Fatalf("read after single PUT of double GET: %v", err)
	}
	if err := f.Ioctl(0, IoctlPerfcounterPut, &put); err != nil {
		t.Fatal(err)
	}
	if err := f.Ioctl(6000, IoctlPerfcounterRead, &rd); err == nil {
		t.Fatal("read after final PUT succeeded")
	}
}

func TestQueryUnknownGroup(t *testing.T) {
	d := newTestDevice()
	f := openTestFile(t, d)
	q := PerfcounterQuery{GroupID: 0x77}
	if err := f.Ioctl(0, IoctlPerfcounterQuery, &q); err == nil {
		t.Fatal("unknown group query succeeded")
	}
}

func TestMultiCounterReadSingleIoctl(t *testing.T) {
	// Figure 10: one blockread ioctl fills a multi-entry buffer.
	d := newTestDevice()
	f := openTestFile(t, d)
	if err := f.ReserveSelected(0); err != nil {
		t.Fatal(err)
	}
	n0 := d.IoctlCount()
	if _, err := f.ReadSelected(5000); err != nil {
		t.Fatal(err)
	}
	if d.IoctlCount()-n0 != 1 {
		t.Fatalf("multi-counter read used %d ioctls, want 1", d.IoctlCount()-n0)
	}
}

// TestReservationLifecycle drives GET, READ and PUT for a Table-1 counter
// and for a countable outside Table 1, which the driver counts in
// different stores: each must keep its own count, read only while held,
// reject a PUT past zero and refuse a read after its last PUT.
func TestReservationLifecycle(t *testing.T) {
	type step struct {
		op      uint32
		wantErr error
		held    int // reserved count after the step
	}
	steps := []step{
		{IoctlPerfcounterRead, ErrNotReserved, 0},
		{IoctlPerfcounterPut, ErrNotReserved, 0},
		{IoctlPerfcounterGet, nil, 1},
		{IoctlPerfcounterGet, nil, 2},
		{IoctlPerfcounterRead, nil, 2},
		{IoctlPerfcounterPut, nil, 1},
		{IoctlPerfcounterRead, nil, 1},
		{IoctlPerfcounterPut, nil, 0},
		{IoctlPerfcounterRead, ErrNotReserved, 0},
		{IoctlPerfcounterPut, ErrNotReserved, 0},
		{IoctlPerfcounterGet, nil, 1},
		{IoctlPerfcounterRead, nil, 1},
	}
	for _, tc := range []struct {
		name      string
		key       adreno.CounterKey
		wantIndex int
	}{
		{"table1", adreno.CounterKey{Group: adreno.GroupLRZ, Countable: adreno.LRZVisiblePrimAfterLRZ}, 0},
		{"outside", adreno.CounterKey{Group: adreno.GroupLRZ, Countable: 0}, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newTestDevice()
			f := openTestFile(t, d)
			// Countables outside Table 1 read as a constant 0.
			var wantValue uint64
			if tc.wantIndex >= 0 {
				wantValue = d.GPU().ReadSelected(5000)[tc.wantIndex]
			}
			// A reservation of the other store's key must not count here.
			other := adreno.CounterKey{Group: adreno.GroupRAS, Countable: 9}
			if tc.wantIndex < 0 {
				other = adreno.Selected[1]
			}
			if err := f.Ioctl(0, IoctlPerfcounterGet, &PerfcounterGet{GroupID: other.Group, Countable: other.Countable}); err != nil {
				t.Fatal(err)
			}
			for i, s := range steps {
				var arg any
				rd := PerfcounterRead{Reads: []PerfcounterReadGroup{{GroupID: tc.key.Group, Countable: tc.key.Countable, Value: 0xdead}}}
				switch s.op {
				case IoctlPerfcounterGet:
					arg = &PerfcounterGet{GroupID: tc.key.Group, Countable: tc.key.Countable}
				case IoctlPerfcounterPut:
					arg = &PerfcounterPut{GroupID: tc.key.Group, Countable: tc.key.Countable}
				case IoctlPerfcounterRead:
					arg = &rd
				}
				err := f.Ioctl(5000, s.op, arg)
				if !errors.Is(err, s.wantErr) || (err == nil) != (s.wantErr == nil) {
					t.Fatalf("step %d (%s): err %v, want %v", i, ioctlMetricName(s.op), err, s.wantErr)
				}
				if s.op == IoctlPerfcounterRead && err == nil && rd.Reads[0].Value != wantValue {
					t.Fatalf("step %d: read %d, want %d", i, rd.Reads[0].Value, wantValue)
				}
				if j, n := d.reserved(tc.key); j != tc.wantIndex || n != s.held {
					t.Fatalf("step %d (%s): reserved = (%d, %d), want (%d, %d)", i, ioctlMetricName(s.op), j, n, tc.wantIndex, s.held)
				}
			}
			if _, n := d.reserved(other); n != 1 {
				t.Fatalf("other key %v holds %d reservations, want 1", other, n)
			}
		})
	}
}
