package android

import (
	"sync"

	"gpuleak/internal/geom"
	"gpuleak/internal/glyph"
	"gpuleak/internal/keyboard"
	"gpuleak/internal/render"
	"gpuleak/internal/sim"
)

// Compositor is the SurfaceFlinger-like component: it owns the login UI,
// the on-screen keyboard and the dynamic layers (popup, echo text, cursor,
// notification icons, app-switch animation) and produces the FrameStats of
// every UI change. Frames are cached by UI state in a StatsCache (the
// process-wide one unless ShareCache attaches another), so sweeping
// hundreds of thousands of key presses costs one render per distinct
// state, and so does serving thousands of sessions of one configuration.
type Compositor struct {
	Device    DeviceModel
	Screen    geom.Size
	RefreshHz int
	App       *App
	KB        *keyboard.Layout
	UI        *LoginUI

	cfg   render.Config
	geoms map[keyboard.Page]*keyboard.Geometry
	// kbPrims memoizes each page's keyboard layer, which depends only on
	// the layout and the page; created on the first render.
	kbPrims map[keyboard.Page][]render.Prim
	fp      fingerprint
	cache   *StatsCache
}

// fingerprint is exactly the configuration NewCompositor renders from:
// the OS version (status bar height), the screen, the app and the
// keyboard. Apps and layouts are immutable package singletons, so their
// pointers identify them; the refresh rate and the GPU model never reach
// a render. Two compositors with equal fingerprints render every state
// identically, which is what lets one cache serve every configuration.
type fingerprint struct {
	androidVersion int
	screen         geom.Size
	app            *App
	kb             *keyboard.Layout
}

// cacheKey names one rendered frame: a configuration and a UI state.
type cacheKey struct {
	fp fingerprint
	st stateKey
}

// cacheEntry holds one state's render; once makes concurrent missers of
// the same state wait for a single render instead of each rasterizing it.
type cacheEntry struct {
	once  sync.Once
	stats render.FrameStats
}

// maxCachedStates bounds a StatsCache: ~33 configurations at the ~245
// states one configuration renders. Evicting an entry only costs a
// re-render of an identical frame.
const maxCachedStates = 8192

// StatsCache is a thread-safe, bounded FrameStats cache that many
// compositors can share. Rendering is a pure function of the
// configuration fingerprint and the UI state, and both form the key, so
// sessions of any configurations — the per-(key, repeat) workers of the
// parallel offline phase, the trials of an experiment, served requests —
// can pool their renders: each distinct frame is rasterized once per
// cache instead of once per session, and sharing can never change a
// result.
type StatsCache struct {
	mu sync.Mutex
	m  map[cacheKey]*cacheEntry
}

// NewStatsCache returns an empty shareable render cache.
func NewStatsCache() *StatsCache {
	return &StatsCache{m: make(map[cacheKey]*cacheEntry)}
}

// processCache is the render cache of every compositor that is not given
// another one. Each entry is a pure function of its key, so callers that
// share it cannot change one another's results, only their speed.
var processCache = NewStatsCache()

// entry returns the entry for k, creating it (and evicting an arbitrary
// entry when the cache is full) on a miss.
func (sc *StatsCache) entry(k cacheKey) *cacheEntry {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	e, ok := sc.m[k]
	if !ok {
		if len(sc.m) >= maxCachedStates {
			for old := range sc.m {
				delete(sc.m, old)
				break
			}
		}
		e = &cacheEntry{}
		sc.m[k] = e
	}
	return e
}

// Len reports how many distinct frame states the cache holds.
func (sc *StatsCache) Len() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.m)
}

// ShareCache renders through sc instead of the process-wide cache; nil
// restores the process cache. Sharing one cache across configurations is
// safe. Call before the first frame is rendered.
func (c *Compositor) ShareCache(sc *StatsCache) {
	if sc == nil {
		sc = processCache
	}
	c.cache = sc
}

type frameKind int

const (
	kindLaunch frameKind = iota
	kindPopupShow
	kindPopupHide
	kindEcho
	kindCursor
	kindNotif
	kindSwitch
	kindAnim
)

// stateKey identifies a UI state within one configuration. Every render
// parameter has its own field, so distinct states never share a key.
type stateKey struct {
	kind  frameKind
	page  keyboard.Page
	r     rune
	n     int
	total int
	on    bool
}

// NewCompositor builds the UI stack for one device configuration.
func NewCompositor(dev DeviceModel, screen geom.Size, refreshHz int, app *App, kb *keyboard.Layout) *Compositor {
	return &Compositor{
		Device:    dev,
		Screen:    screen,
		RefreshHz: refreshHz,
		App:       app,
		KB:        kb,
		UI:        app.BuildLoginUI(screen, dev.AndroidVersion),
		cfg:       render.DefaultConfig(),
		geoms:     make(map[keyboard.Page]*keyboard.Geometry),
		fp:        fingerprint{androidVersion: dev.AndroidVersion, screen: screen, app: app, kb: kb},
		cache:     processCache,
	}
}

// VsyncPeriod returns the display refresh interval.
func (c *Compositor) VsyncPeriod() sim.Time {
	return sim.Time(1_000_000 / c.RefreshHz)
}

// AlignVsync returns the first vsync boundary at or after t.
func (c *Compositor) AlignVsync(t sim.Time) sim.Time {
	p := c.VsyncPeriod()
	if t%p == 0 {
		return t
	}
	return (t/p + 1) * p
}

// Geometry returns (and caches) the keyboard geometry for a page.
func (c *Compositor) Geometry(page keyboard.Page) *keyboard.Geometry {
	if g, ok := c.geoms[page]; ok {
		return g
	}
	g := c.KB.Geometry(c.Screen, page)
	c.geoms[page] = g
	return g
}

// keyboardLayer returns the IME surface: key caps (opaque quads) plus key
// labels (vector glyph primitives — large text renders as tessellated
// paths). This layer is what a popup redraw re-renders, giving the
// ~1.6k-primitive frame deltas of Figure 5. It is built once per page and
// shared by every scene after that, which is sound because scenes share
// prim slices and Render only reads them.
func (c *Compositor) keyboardLayer(page keyboard.Page) render.Layer {
	prims, ok := c.kbPrims[page]
	if !ok {
		g := c.Geometry(page)
		prims = []render.Prim{render.Quad(g.Bounds, true)}
		for _, key := range g.Keys {
			prims = append(prims, render.Quad(key.Face, true))
			prims = append(prims, render.GlyphPrims(glyph.MustLookup(key.Rune()), key.LabelBox)...)
		}
		if c.kbPrims == nil {
			c.kbPrims = make(map[keyboard.Page][]render.Prim)
		}
		c.kbPrims[page] = prims
	}
	return render.Layer{Z: 10, Name: "keyboard", Prims: prims}
}

// popupRect returns the key press popup's bounds for rune r, false when
// the page has no key for r.
func (c *Compositor) popupRect(page keyboard.Page, r rune) (geom.Rect, bool) {
	g := c.Geometry(page)
	key, ok := g.KeyFor(r)
	if !ok {
		return geom.Rect{}, false
	}
	return g.PopupRect(key), true
}

// popupLayer builds the key press popup surface above the keyboard.
func (c *Compositor) popupLayer(page keyboard.Page, r rune) (render.Layer, bool) {
	popup, ok := c.popupRect(page, r)
	if !ok {
		return render.Layer{}, false
	}
	prims := []render.Prim{render.Quad(popup, true)}
	prims = append(prims, render.GlyphPrims(glyph.MustLookup(r), c.Geometry(page).PopupGlyphBox(popup))...)
	return render.Layer{Z: 20, Name: "popup", Prims: prims}, true
}

// echoLayer renders the masked password echo: one atlas quad (2 triangles)
// per typed character plus an optional cursor bar. This is the physical
// basis of the Figure-14 ±2 primitive steps.
func (c *Compositor) echoLayer(n int, cursorOn bool) render.Layer {
	prims := render.AtlasTextPrims(bullets(n), c.UI.EchoLine(), c.UI.EchoCharW)
	if cursorOn {
		prims = append(prims, render.Quad(c.UI.CursorRect(n), false))
	}
	return render.Layer{Z: 6, Name: "echo", Prims: prims}
}

func bullets(n int) string {
	rs := make([]rune, n)
	for i := range rs {
		rs[i] = '•'
	}
	return string(rs)
}

// scene assembles the full current screen.
func (c *Compositor) scene(page keyboard.Page, popupRune rune, echoLen int, cursorOn bool) render.Scene {
	s := c.UI.Scene.Clone()
	s.Add(c.echoLayer(echoLen, cursorOn))
	s.Add(c.keyboardLayer(page))
	if popupRune != 0 {
		if l, ok := c.popupLayer(page, popupRune); ok {
			s.Add(l)
		}
	}
	return s
}

// cached returns the stats of state k, rendering them with build on the
// first request for k in this configuration.
func (c *Compositor) cached(k stateKey, build func() render.FrameStats) render.FrameStats {
	e := c.cache.entry(cacheKey{fp: c.fp, st: k})
	e.once.Do(func() { e.stats = build() })
	return e.stats
}

// LaunchStats renders the first full frame after the target app opens:
// the device-recognition fingerprint of §3.2.
func (c *Compositor) LaunchStats() render.FrameStats {
	return c.cached(stateKey{kind: kindLaunch}, func() render.FrameStats {
		s := c.scene(keyboard.PageLower, 0, 0, true)
		return render.Render(&s, s.Bounds(), c.cfg)
	})
}

// PopupShowStats renders the frame in which the popup of rune r appears.
// The IME window redraws (keyboard bounds) plus the popup overhang.
func (c *Compositor) PopupShowStats(page keyboard.Page, r rune) render.FrameStats {
	return c.cached(stateKey{kind: kindPopupShow, page: page, r: r}, func() render.FrameStats {
		popup, ok := c.popupRect(page, r)
		if !ok {
			return render.FrameStats{}
		}
		s := c.scene(page, r, 0, false)
		damage := c.Geometry(page).Bounds.Union(popup)
		return render.Render(&s, damage, c.cfg)
	})
}

// PopupHideStats renders the frame in which the popup disappears (same
// damage, keyboard without popup).
func (c *Compositor) PopupHideStats(page keyboard.Page, r rune) render.FrameStats {
	return c.cached(stateKey{kind: kindPopupHide, page: page, r: r}, func() render.FrameStats {
		popup, ok := c.popupRect(page, r)
		if !ok {
			return render.FrameStats{}
		}
		s := c.scene(page, 0, 0, false)
		damage := c.Geometry(page).Bounds.Union(popup)
		return render.Render(&s, damage, c.cfg)
	})
}

// EchoStats renders the password-field update after the n-th character
// appears (or after a deletion leaves n characters).
func (c *Compositor) EchoStats(n int, cursorOn bool) render.FrameStats {
	return c.cached(stateKey{kind: kindEcho, n: n, on: cursorOn}, func() render.FrameStats {
		s := c.scene(keyboard.PageLower, 0, n, cursorOn)
		return render.Render(&s, c.UI.Password, c.cfg)
	})
}

// CursorStats renders a cursor blink toggle: tiny damage, tiny delta —
// the §5.3 noise source with a strict 0.5 s period.
func (c *Compositor) CursorStats(n int, on bool) render.FrameStats {
	return c.cached(stateKey{kind: kindCursor, n: n, on: on}, func() render.FrameStats {
		s := c.scene(keyboard.PageLower, 0, n, on)
		return render.Render(&s, c.UI.CursorRect(n).Inset(-2), c.cfg)
	})
}

// NotifStats renders a status-bar change with n notification icons.
func (c *Compositor) NotifStats(n int) render.FrameStats {
	return c.cached(stateKey{kind: kindNotif, n: n}, func() render.FrameStats {
		s := c.scene(keyboard.PageLower, 0, 0, false)
		sb := c.UI.StatusBar
		iconW := sb.H() - 8
		prims := make([]render.Prim, 0, n)
		for i := 0; i < n; i++ {
			x := sb.X0 + 8 + i*(iconW+6)
			prims = append(prims, render.Quad(geom.Rect{X0: x, Y0: sb.Y0 + 4, X1: x + iconW, Y1: sb.Y1 - 4}, false))
		}
		s.Add(render.Layer{Z: 8, Name: "notif", Prims: prims})
		return render.Render(&s, sb, c.cfg)
	})
}

// SwitchFrameStats renders frame i of the app-switch (recents) animation:
// full-screen redraws with scaled app cards, producing the fierce counter
// bursts of Figure 13.
func (c *Compositor) SwitchFrameStats(i, total int) render.FrameStats {
	return c.cached(stateKey{kind: kindSwitch, n: i, total: total}, func() render.FrameStats {
		s := render.Scene{Screen: c.Screen}
		full := geom.XYWH(0, 0, c.Screen.W, c.Screen.H)
		s.Add(render.Layer{Z: 0, Name: "wallpaper", Prims: []render.Prim{render.Quad(full, true)}})
		// Two app cards shrinking/sliding with the animation phase.
		frac := float64(i+1) / float64(total+1)
		w := int(float64(c.Screen.W) * (1.0 - 0.35*frac))
		h := int(float64(c.Screen.H) * (1.0 - 0.35*frac))
		x0 := (c.Screen.W - w) / 2
		y0 := (c.Screen.H - h) / 2
		card1 := geom.Rect{X0: x0, Y0: y0, X1: x0 + w, Y1: y0 + h}
		card2 := card1.Translate(-w-40, 0).Intersect(full)
		prims := []render.Prim{render.Quad(card1, false)}
		if !card2.Empty() {
			prims = append(prims, render.Quad(card2, false))
		}
		// Card contents: a blurred snapshot approximated by banded quads.
		for b := 0; b < 6; b++ {
			band := geom.Rect{X0: card1.X0 + 16, Y0: card1.Y0 + 16 + b*h/7, X1: card1.X1 - 16, Y1: card1.Y0 + 16 + b*h/7 + h/9}
			prims = append(prims, render.Quad(band.Intersect(full), false))
		}
		s.Add(render.Layer{Z: 5, Name: "cards", Prims: prims})
		return render.Render(&s, full, c.cfg)
	})
}

// AnimFrameStats renders one frame of a decorative login animation (PNC,
// §9.3): an ornament sweeping through the animation band. Each phase has
// different stats, so these frames obfuscate the per-key deltas.
func (c *Compositor) AnimFrameStats(phase int) render.FrameStats {
	band := c.UI.AnimBand
	if band.Empty() {
		return render.FrameStats{}
	}
	const phases = 24
	phase = phase % phases
	return c.cached(stateKey{kind: kindAnim, n: phase}, func() render.FrameStats {
		s := c.scene(keyboard.PageLower, 0, 0, false)
		w := band.W() / 6
		x := band.X0 + (band.W()-w)*phase/phases
		orn := geom.Rect{X0: x, Y0: band.Y0 + 2, X1: x + w + phase*3, Y1: band.Y1 - 2}
		spark := geom.Rect{X0: x + w/3, Y0: band.Y0 + band.H()/4, X1: x + w/3 + 12 + phase, Y1: band.Y0 + band.H()/4 + 12}
		s.Add(render.Layer{Z: 7, Name: "anim", Prims: []render.Prim{
			render.Quad(band, false),
			render.Quad(orn.Intersect(band), false),
			render.Quad(spark.Intersect(band), false),
		}})
		return render.Render(&s, band, c.cfg)
	})
}

// FrameDuration converts a frame's pixel work into GPU draw time given the
// device fill rate and a contention factor from concurrent GPU load
// (0 = idle). Longer draws widen the mid-draw window in which a counter
// read observes a split delta (§7.3).
func (c *Compositor) FrameDuration(st render.FrameStats, gpuLoad float64) sim.Time {
	if gpuLoad < 0 {
		gpuLoad = 0
	}
	if gpuLoad > 0.95 {
		gpuLoad = 0.95
	}
	rate := c.Device.GPU.FillRate() * (1 - 0.75*gpuLoad)
	us := float64(st.TotalPixels) / rate
	d := sim.Time(us)
	if d < 300 {
		d = 300
	}
	if max := c.VsyncPeriod() * 3; d > max {
		d = max
	}
	return d
}

// KeyboardRedrawStats renders a plain IME redraw (page switch, layout
// change): keyboard bounds damage, no popup.
func (c *Compositor) KeyboardRedrawStats(page keyboard.Page) render.FrameStats {
	return c.cached(stateKey{kind: kindPopupHide, page: page, r: -1}, func() render.FrameStats {
		s := c.scene(page, 0, 0, false)
		return render.Render(&s, c.Geometry(page).Bounds, c.cfg)
	})
}
