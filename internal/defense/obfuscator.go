package defense

import (
	"sync"

	"gpuleak/internal/adreno"
	"gpuleak/internal/kgsl"
	"gpuleak/internal/sim"
)

// NoiseObfuscator is the §9.3 OS-level obfuscation: the system executes
// small random GPU workloads in the background, so global counters carry
// a monotone random walk on top of real work. Amplitude is the mean extra
// counter increment per vsync-sized bucket, expressed as a fraction of
// Scale (the typical key-press delta of that counter). It implements
// kgsl.Obfuscator and backs the registered "noise" defense.
type NoiseObfuscator struct {
	// Amplitude is the obfuscation strength: 0 disables, 1 injects
	// key-press-sized noise every bucket (heavy GPU cost).
	Amplitude float64
	// Scale is the per-counter reference magnitude (typical key delta).
	Scale [adreno.NumSelected]uint64
	// Seed makes the injected workload stream reproducible.
	Seed uint64

	mu  sync.Mutex
	cum map[adreno.CounterKey][]uint64 // memoized cumulative noise per bucket
}

// bucket is the obfuscation workload cadence (one injected draw slot per
// display frame).
const bucket = 16 * sim.Millisecond

// Obfuscate implements kgsl.Obfuscator: value plus the cumulative injected
// work up to time t. Cumulative noise keeps counters monotone — the
// injected workloads are real GPU draws, not register tampering.
func (o *NoiseObfuscator) Obfuscate(k adreno.CounterKey, value uint64, t sim.Time) uint64 {
	if o.Amplitude <= 0 || t < 0 {
		return value
	}
	idx := adreno.SelectedIndex(k)
	if idx < 0 {
		return value
	}
	b := int(t / bucket)
	return value + o.cumNoise(k, idx, b)
}

func (o *NoiseObfuscator) cumNoise(k adreno.CounterKey, idx, b int) uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.cum == nil {
		o.cum = make(map[adreno.CounterKey][]uint64)
	}
	c := o.cum[k]
	for len(c) <= b {
		prev := uint64(0)
		if len(c) > 0 {
			prev = c[len(c)-1]
		}
		c = append(c, prev+o.increment(idx, len(c)))
	}
	o.cum[k] = c
	return c[b]
}

// DefaultCounterScale holds representative per-counter key-press delta
// magnitudes (OnePlus 8 Pro, FHD+, GBoard), used when Scale is unset.
var DefaultCounterScale = [adreno.NumSelected]uint64{
	1600, 26000, 4000, 2_900_000, 480_000, 2400, 58000, 52000, 1700, 13000, 80,
}

// increment draws the injected work for one bucket: uniform in
// [0, 2*Amplitude*Scale], so the mean rate is Amplitude*Scale per bucket.
func (o *NoiseObfuscator) increment(idx, b int) uint64 {
	scale := o.Scale[idx]
	if scale == 0 {
		scale = DefaultCounterScale[idx]
	}
	h := splitmix(o.Seed ^ uint64(idx)<<32 ^ uint64(b))
	max := uint64(2 * o.Amplitude * float64(scale))
	if max == 0 {
		return 0
	}
	return h % (max + 1)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// GPUCostFraction estimates the GPU utilization the obfuscation workloads
// themselves consume — the §9.3 tradeoff ("excessive GPU workloads impair
// the system's performance"). The injected work per bucket averages
// Amplitude key-press-equivalents; a key press costs roughly 2-4 ms of
// GPU time per 16 ms bucket.
func (o *NoiseObfuscator) GPUCostFraction() float64 {
	cost := o.Amplitude * 0.18
	if cost > 1 {
		cost = 1
	}
	return cost
}

// DefaultScale derives per-counter reference magnitudes from a trained
// attack model's mean key delta (what the OS vendor would measure on a
// reference device).
func DefaultScale(meanKeyDelta [adreno.NumSelected]float64) [adreno.NumSelected]uint64 {
	var out [adreno.NumSelected]uint64
	for i, v := range meanKeyDelta {
		if v < 0 {
			v = -v
		}
		out[i] = uint64(v)
	}
	return out
}

// RBACPolicy is the §9.2 fine-grained role-based access control: only
// processes whose SELinux context is on the allowlist may read global GPU
// performance counter values; everything else gets EPERM. This is the
// "SELinux Access Manager + ioctl command whitelisting" design. It
// implements kgsl.Policy; the registered "rbac" defense is its graded
// probe-level sibling (masking instead of refusing whole block reads).
type RBACPolicy struct {
	// AllowedContexts lists SELinux contexts with global PC access
	// (profilers, platform tooling).
	AllowedContexts map[string]bool
	// RestrictedGroups limits enforcement to specific counter groups;
	// empty means all groups are restricted.
	RestrictedGroups map[uint32]bool
}

// NewRBACPolicy builds the paper's recommended policy: platform and shell
// domains may profile; untrusted apps may not read any global counter.
func NewRBACPolicy() *RBACPolicy {
	return &RBACPolicy{
		AllowedContexts: map[string]bool{
			"u:r:platform_app:s0": true,
			"u:r:shell:s0":        true,
			"u:r:su:s0":           true,
		},
	}
}

// RestrictOverdrawGroupsOnly narrows the policy to the LRZ/RAS/VPC groups
// the attack needs, leaving other counters readable (a compatibility
// compromise discussed in §9.2).
func (p *RBACPolicy) RestrictOverdrawGroupsOnly() *RBACPolicy {
	p.RestrictedGroups = map[uint32]bool{
		adreno.GroupLRZ: true,
		adreno.GroupRAS: true,
		adreno.GroupVPC: true,
	}
	return p
}

// AllowPerfcounterRead implements kgsl.Policy.
func (p *RBACPolicy) AllowPerfcounterRead(ctx kgsl.ProcContext, k adreno.CounterKey) error {
	if p.AllowedContexts[ctx.SELinuxContext] {
		return nil
	}
	if len(p.RestrictedGroups) > 0 && !p.RestrictedGroups[k.Group] {
		return nil
	}
	return kgsl.ErrPerm
}
