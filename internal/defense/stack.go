package defense

import (
	"fmt"

	"gpuleak/internal/attack"
	"gpuleak/internal/channel"
	"gpuleak/internal/fault"
)

// Stack is one channel's read path as the attacker samples it: the probe
// at the top of the stack, the fault layer when one was requested (its
// Stats report what it injected), and the retry policy the sampler runs
// with. Build it with Wrap.
type Stack struct {
	Probe channel.Probe
	Fault *fault.File
	Retry attack.RetryPolicy
}

// Wrap stacks the read path of the named channel over its freshly opened
// probe p. It is the single composition rule of the fault and defense
// planes, shared by the serving layer, the experiments and the CLIs:
//
//   - the device probe is innermost;
//   - the fault plane (profile fp, schedule seed faultSeed) wraps it when
//     fp is named. Profiles model the KGSL ioctl path, so p must be a
//     fault.Device; any other probe is an error;
//   - the armed defense inst (nil: undefended) wraps that through its
//     per-channel applicability set, so a rate-limit denial happens
//     before any, possibly faulted, device read. Every defense wrapper
//     forwards TickFault, so the fault schedule's clock perturbations
//     still reach the sampler;
//   - the retry policy is attack.DefaultRetryPolicy when either layer was
//     requested — injected faults and defense denials degrade the result
//     instead of failing it — and the zero policy on a bare probe, which
//     keeps undefended, fault-free runs byte-identical to the raw device.
func Wrap(channelName string, p channel.Probe, fp fault.Profile, faultSeed int64, inst Instance) (Stack, error) {
	s := Stack{Probe: p}
	if fp.Name != "" {
		dev, ok := p.(fault.Device)
		if !ok {
			return Stack{}, fmt.Errorf("defense: channel %q cannot carry a fault profile", channelName)
		}
		s.Fault = fault.NewFile(dev, fp, faultSeed)
		s.Probe = s.Fault
		s.Retry = attack.DefaultRetryPolicy()
	}
	if inst != nil {
		s.Probe = inst.WrapProbe(channelName, s.Probe)
		s.Retry = attack.DefaultRetryPolicy()
	}
	return s, nil
}
