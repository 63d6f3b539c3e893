package victim

import (
	"reflect"
	"testing"

	"gpuleak/internal/adreno"
	"gpuleak/internal/android"
	"gpuleak/internal/input"
	"gpuleak/internal/keyboard"
	"gpuleak/internal/sim"
)

// fixedScript is a short practical session: typing with corrections, an
// app switch and a notification glance, so every compositor state kind
// appears.
func fixedScript() input.Script {
	return input.Practical("Pa5s wd", input.Volunteers[1], input.DefaultPracticalOptions(), sim.NewRand(9), 500*sim.Millisecond)
}

// sessionView is what a session exposes to an attacker and to scoring:
// the frame timeline and one mid-frame counter read.
type sessionView struct {
	frames []adreno.Frame
	read   [adreno.NumSelected]uint64
}

func viewOf(t *testing.T, cfg Config) sessionView {
	t.Helper()
	s := New(cfg)
	s.Run(fixedScript())
	frames := s.GPU.Frames()
	mid := frames[len(frames)/2]
	f, err := s.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ReserveSelected(0); err != nil {
		t.Fatal(err)
	}
	read, err := f.ReadSelected((mid.Start + mid.End) / 2)
	if err != nil {
		t.Fatal(err)
	}
	return sessionView{frames: append([]adreno.Frame(nil), frames...), read: read}
}

// allApps is the Figure-19 set plus the animated PNC login.
func allApps() []*android.App {
	return append(append([]*android.App{}, android.TargetApps...), android.PNC)
}

// TestCachedSessionsMatchCold builds every device × keyboard × app
// session twice through the process-wide render cache (the first build
// fills it, the second reads it back) and once through a private fresh
// cache: the warm and cold views must be identical.
func TestCachedSessionsMatchCold(t *testing.T) {
	for _, dev := range android.Devices {
		for _, kb := range keyboard.All {
			for _, app := range allApps() {
				cfg := Config{Device: dev, Keyboard: kb, App: app, Seed: 5, RenderJitter: 0.004}
				viewOf(t, cfg)
				warm := viewOf(t, cfg)
				cfg.RenderCache = android.NewStatsCache()
				cold := viewOf(t, cfg)
				if !reflect.DeepEqual(warm, cold) {
					t.Fatalf("%s / %s / %s: process-cached session differs from a cold one", dev.Name, kb.Name, app.Name)
				}
			}
		}
	}
}

// TestSharedCacheAcrossConfigs runs two configurations through one
// explicit cache: each must render exactly what it renders alone.
func TestSharedCacheAcrossConfigs(t *testing.T) {
	a := Config{Device: android.OnePlus8Pro, Keyboard: keyboard.GBoard, App: android.Chase, Seed: 3}
	b := Config{Device: android.Pixel5, Keyboard: keyboard.Swift, App: android.Amex, Seed: 3}
	shared := android.NewStatsCache()
	for i, cfg := range []Config{a, b} {
		cfg.RenderCache = shared
		got := viewOf(t, cfg)
		cfg.RenderCache = android.NewStatsCache()
		if want := viewOf(t, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("config %d: shared-cache session differs from its own-cache session", i)
		}
	}
}

// TestWarmPathAllocs pins the per-request allocation cost of the victim
// path once its renders are cached: a session build, and a KGSL counter
// read, which reuses its file's request buffer.
func TestWarmPathAllocs(t *testing.T) {
	cfg := baseConfig()
	script := fixedScript()
	build := func() *Session {
		s := New(cfg)
		s.Run(script)
		return s
	}
	s := build() // warm the process cache
	f, err := s.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ReserveSelected(0); err != nil {
		t.Fatal(err)
	}
	read := func() {
		if _, err := f.ReadSelected(s.End / 2); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if got := testing.AllocsPerRun(100, read); got != 0 {
		t.Errorf("kgsl ReadSelected: %v allocs per read, want 0", got)
	}
	const warmBuildAllocs = 103
	if got := testing.AllocsPerRun(20, func() { build() }); got != warmBuildAllocs {
		t.Errorf("warm victim New+Run: %v allocs, want %d", got, warmBuildAllocs)
	}
}
