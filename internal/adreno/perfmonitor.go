package adreno

import (
	"fmt"

	"gpuleak/internal/sim"
)

// The paper's §3.3 explains why the attack bypasses the official API:
// the GL_AMD_performance_monitor extension "can only be used by the
// attacking application to read the local PC value changes caused by
// this application itself, but cannot provide any global GPU
// information". This file models that sanctioned interface so the
// limitation is demonstrable: a monitor is bound to a GL context (a PID)
// and accumulates only the counter contributions of frames that context
// submitted.

// PerfMonitor is a GL_AMD_performance_monitor session bound to one
// process's GL context.
type PerfMonitor struct {
	gpu     *GPU
	pid     int
	active  bool
	beginAt sim.Time
}

// NewPerfMonitor creates a monitor for the given process (the calling
// application; the driver scopes it automatically).
func (g *GPU) NewPerfMonitor(pid int) *PerfMonitor {
	return &PerfMonitor{gpu: g, pid: pid}
}

// Begin starts counter collection (glBeginPerfMonitorAMD).
func (m *PerfMonitor) Begin(t sim.Time) error {
	if m.active {
		return fmt.Errorf("adreno: perf monitor already active")
	}
	m.active = true
	m.beginAt = t
	return nil
}

// End stops collection and returns the counter deltas attributable to
// the monitor's own context (glEndPerfMonitorAMD +
// glGetPerfMonitorCounterDataAMD).
func (m *PerfMonitor) End(t sim.Time) ([NumSelected]uint64, error) {
	var out [NumSelected]uint64
	if !m.active {
		return out, fmt.Errorf("adreno: perf monitor not active")
	}
	m.active = false
	if t < m.beginAt {
		return out, fmt.Errorf("adreno: monitor ended before it began")
	}
	for fi, f := range m.gpu.frames {
		if f.PID != m.pid {
			continue
		}
		if f.End <= m.beginAt || f.Start >= t {
			continue
		}
		v := &m.gpu.vecs[fi]
		// Partial overlap contributes proportionally, like the global
		// register ramp.
		span := f.End - f.Start
		s, e := f.Start, f.End
		if s < m.beginAt {
			s = m.beginAt
		}
		if e > t {
			e = t
		}
		frac := uint64(e - s)
		for i := range out {
			out[i] += v[i] * frac / uint64(span)
		}
	}
	return out, nil
}
