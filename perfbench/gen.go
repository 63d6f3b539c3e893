package main

import (
	"gpuleak/internal/android"
	"gpuleak/internal/input"
	"gpuleak/internal/keyboard"
	"gpuleak/internal/serve"
	"gpuleak/internal/sim"
	"gpuleak/internal/victim"
)

// Workload generators. Every input is a pure function of the workload
// seed and the operation index, so a seed names one exact op sequence
// whatever the timing, and the server only ever sees the generated
// requests.

// config is a victim configuration by catalog names.
type config struct {
	device, app, keyboard string
}

// hotConfigs are three pre-trained configurations on distinct GPUs
// (Adreno 640, 650, 660), so eavesdrop-hot and stream-robust always hit
// the registry and spread over several shards.
var hotConfigs = []config{
	{"OnePlus 7 Pro", "Chase", "gboard"},
	{"OnePlus 8 Pro", "Chase", "gboard"},
	{"OnePlus 9", "Chase", "gboard"},
}

// Stream separation for the per-workload generators, so two workloads
// with one seed still draw unrelated inputs.
const (
	saltHot    = 0x686f74
	saltStream = 0x737472
	saltTrain  = 0x74726e
	saltSample = 0x736d70
)

// credential draws an 8-16 rune credential the keyboard can type.
func credential(rng *sim.Rand, kb string) string {
	return input.RandomText(rng, keyboard.ByName(kb).TypableRunes(), 8+rng.Intn(9))
}

func (c config) request(rng *sim.Rand) serve.EavesdropRequest {
	return serve.EavesdropRequest{
		Device: c.device, App: c.app, Keyboard: c.keyboard,
		Text: credential(rng, c.keyboard),
		Seed: rng.Int63(),
	}
}

// victimConfig resolves c the way the server resolves a request for it.
func (c config) victimConfig() (victim.Config, error) {
	scen, err := serve.ResolveScenario(serve.EavesdropRequest{Device: c.device, App: c.app, Keyboard: c.keyboard, Text: "warmup"})
	return scen.Cfg, err
}

// hotOp is eavesdrop-hot's op i: a fresh credential and victim seed on
// one of the pre-trained configurations.
func hotOp(seed int64, i int) serve.EavesdropRequest {
	rng := sim.NewRand(sim.TaskSeed(seed^saltHot, i))
	return sim.Pick(rng, hotConfigs).request(rng)
}

// streamDefenses are rotated over stream-robust's sessions.
// streamStrength is low enough that the attack still reads most
// characters through every defense. The sessions' fault profile is mild:
// under heavier profiles some seeded sessions exhaust the sampler's retry
// budget and fail with 503 by design, and no benchmark op may fail.
var streamDefenses = []string{"ratelimit", "quantize", "noise", "jitter"}

const (
	streamStrength = 0.1
	streamFault    = "mild"
)

// isFusion reports whether stream-robust's op i is the one-in-four
// two-channel fusion request; the rest are SSE sessions.
func isFusion(i int) bool { return i%4 == 3 }

// streamOp is stream-robust's op i. Sessions use practical typing, a
// fault profile and a defense; every fourth op is a one-shot kgsl +
// proccount fusion request under CPU starvation.
func streamOp(seed int64, i int) serve.EavesdropRequest {
	rng := sim.NewRand(sim.TaskSeed(seed^saltStream, i))
	req := sim.Pick(rng, hotConfigs).request(rng)
	if isFusion(i) {
		req.Channels = []string{"kgsl", "proccount"}
		req.FaultProfile = "starve"
		return req
	}
	s := i - i/4 // sessions before op i
	req.Practical = true
	req.Defense = streamDefenses[s%len(streamDefenses)]
	req.DefenseStrength = streamStrength
	req.FaultProfile = streamFault
	return req
}

// trainWalk is train-sweep's walk over the whole catalog, seeded. Op i
// trains walk[i mod 420]. Within each aligned block of 70 ops, op r has
// device r mod 7, app r mod 10 and, in block b, keyboard (b+r) mod 6, each
// in a seeded order. By the Chinese remainder theorem a block covers
// every device x app pair once, and the six blocks give each pair every
// keyboard once. So any window of consecutive ops carries nearly the same
// configuration mix whatever the seed, and a configuration recurs only
// after all 420, far beyond the registry's capacity: every request
// misses.
func trainWalk(seed int64) []config {
	rng := sim.NewRand(seed ^ saltTrain)
	apps := append(append([]*android.App{}, android.TargetApps...), android.PNC)
	nd, na, nk := len(android.Devices), len(apps), len(keyboard.All)
	devs, appOrder, kbs := rng.Perm(nd), rng.Perm(na), rng.Perm(nk)
	out := make([]config, 0, nd*na*nk)
	for b := 0; b < nk; b++ {
		for r := 0; r < nd*na; r++ {
			d, a, k := devs[r%nd], appOrder[r%na], kbs[(b+r)%nk]
			out = append(out, config{android.Devices[d].Name, apps[a].Name, keyboard.All[k].Name})
		}
	}
	return out
}

// sampleOps picks k distinct op indices below n in a seeded order. It is
// the seed-fixed set the output check and the traced replay run.
func sampleOps(seed int64, n, k int) []int {
	rng := sim.NewRand(seed ^ saltSample)
	p := rng.Perm(n)
	return p[:min(k, n)]
}
