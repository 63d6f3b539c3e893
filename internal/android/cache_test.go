package android

import (
	"sync"
	"sync/atomic"
	"testing"

	"gpuleak/internal/keyboard"
	"gpuleak/internal/render"
)

// TestCachedRendersOnce asks one fresh cache for the same states from
// many goroutines at once: every state must be built exactly once, and
// every caller must see that one build's result.
func TestCachedRendersOnce(t *testing.T) {
	const goroutines, states = 16, 32
	sc := NewStatsCache()
	var builds [states]atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := testComp()
			c.ShareCache(sc)
			for n := 0; n < states; n++ {
				st := c.cached(stateKey{kind: kindEcho, n: n}, func() render.FrameStats {
					builds[n].Add(1)
					return render.FrameStats{PCPrimitives: uint64(n + 1)}
				})
				if st.PCPrimitives != uint64(n+1) {
					t.Errorf("state %d: got %+v", n, st)
				}
			}
		}()
	}
	wg.Wait()
	for n := range builds {
		if got := builds[n].Load(); got != 1 {
			t.Errorf("state %d built %d times, want 1", n, got)
		}
	}
	if sc.Len() != states {
		t.Errorf("cache holds %d states, want %d", sc.Len(), states)
	}
}

// TestStateKeyInjective pins that a switch frame's index and frame count
// are keyed apart: i*100+total packing made (1, 100) and (2, 0) one key.
func TestStateKeyInjective(t *testing.T) {
	c := testComp()
	c.ShareCache(NewStatsCache())
	a := c.SwitchFrameStats(1, 100)
	b := c.SwitchFrameStats(2, 0)
	cold := testComp()
	cold.ShareCache(NewStatsCache())
	if want := cold.SwitchFrameStats(2, 0); b != want {
		t.Fatalf("SwitchFrameStats(2, 0) after (1, 100) = %+v, cold render %+v", b, want)
	}
	if a == b {
		t.Fatal("(1, 100) and (2, 0) render identically; the test cannot tell a collision")
	}
}

// TestFingerprintSeparatesConfigs renders one state through one cache
// for compositors that differ in one fingerprint field each; each must
// get its own render.
func TestFingerprintSeparatesConfigs(t *testing.T) {
	comps := []*Compositor{
		NewCompositor(OnePlus8Pro, FHDPlus, 60, Chase, keyboard.GBoard),
		NewCompositor(OnePlus8Pro, QHDPlus, 60, Chase, keyboard.GBoard),
		NewCompositor(OnePlus8Pro.WithAndroidVersion(9), FHDPlus, 60, Chase, keyboard.GBoard),
		NewCompositor(OnePlus8Pro, FHDPlus, 60, Amex, keyboard.GBoard),
		NewCompositor(OnePlus8Pro, FHDPlus, 60, Chase, keyboard.Swift),
	}
	sc := NewStatsCache()
	seen := make(map[render.FrameStats]int)
	for i, c := range comps {
		c.ShareCache(sc)
		got := c.LaunchStats()
		c.ShareCache(NewStatsCache())
		if want := c.LaunchStats(); got != want {
			t.Errorf("config %d: shared-cache launch %+v, own cache %+v", i, got, want)
		}
		if j, ok := seen[got]; ok {
			t.Errorf("configs %d and %d launch identically; the test cannot tell a collision", j, i)
		}
		seen[got] = i
	}
}

// TestStatsCacheBounded overfills a cache: it must stay at its bound and
// keep answering with the right renders.
func TestStatsCacheBounded(t *testing.T) {
	c := testComp()
	c.ShareCache(NewStatsCache())
	for n := 0; n < maxCachedStates+100; n++ {
		st := c.cached(stateKey{kind: kindNotif, n: n}, func() render.FrameStats {
			return render.FrameStats{TotalPixels: uint64(n)}
		})
		if st.TotalPixels != uint64(n) {
			t.Fatalf("state %d: got %+v", n, st)
		}
	}
	if got := c.cache.Len(); got != maxCachedStates {
		t.Fatalf("cache holds %d states, want the bound %d", got, maxCachedStates)
	}
}
