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

// TestKeyboardLayerMemoMatchesFresh renders every popup state through one
// compositor, whose keyboard layer is built once per page and then shared
// by every scene, and through a fresh compositor per state: the frames
// must be identical.
func TestKeyboardLayerMemoMatchesFresh(t *testing.T) {
	warm := testComp()
	warm.ShareCache(NewStatsCache())
	for _, r := range warm.KB.TypableRunes() {
		page, ok := warm.KB.PageFor(r)
		if !ok {
			t.Fatalf("rune %q has no page", r)
		}
		for _, frame := range []func(*Compositor) render.FrameStats{
			func(c *Compositor) render.FrameStats { return c.PopupShowStats(page, r) },
			func(c *Compositor) render.FrameStats { return c.PopupHideStats(page, r) },
		} {
			cold := testComp()
			cold.ShareCache(NewStatsCache())
			if got, want := frame(warm), frame(cold); got != want {
				t.Fatalf("rune %q on page %v: memoized layer renders %+v, fresh %+v", r, page, got, want)
			}
		}
	}
}

// TestRenderPathAllocs pins the allocations of a popup frame's render: a
// warm keyboard layer is free, and Render allocates only its draw list,
// presized to the prim count (the opaque-draw index fits on the stack).
func TestRenderPathAllocs(t *testing.T) {
	c := testComp()
	page, r := keyboard.PageLower, 'q'
	c.keyboardLayer(page)
	if got := testing.AllocsPerRun(100, func() { c.keyboardLayer(page) }); got != 0 {
		t.Errorf("warm keyboardLayer: %v allocs, want 0", got)
	}
	popup, ok := c.popupRect(page, r)
	if !ok {
		t.Fatalf("no popup for %q", r)
	}
	s := c.scene(page, r, 0, false)
	damage := c.Geometry(page).Bounds.Union(popup)
	const renderAllocs = 1
	if got := testing.AllocsPerRun(20, func() { render.Render(&s, damage, c.cfg) }); got != renderAllocs {
		t.Errorf("render.Render of a keyboard-plus-popup frame: %v allocs, want %d", got, renderAllocs)
	}
}
