package render

import (
	"reflect"
	"testing"
	"testing/quick"

	"gpuleak/internal/geom"
	"gpuleak/internal/glyph"
)

func testScene() *Scene {
	s := &Scene{Screen: geom.Size{W: 1080, H: 2376}}
	s.Add(Layer{Z: 0, Name: "background", Prims: []Prim{Quad(s.Bounds(), true)}})
	return s
}

func TestEmptyDamageIsFree(t *testing.T) {
	s := testScene()
	if got := Render(s, geom.Rect{}, DefaultConfig()); !got.IsZero() {
		t.Fatalf("empty damage produced work: %+v", got)
	}
}

func TestFullScreenBackground(t *testing.T) {
	s := testScene()
	st := Render(s, s.Bounds(), DefaultConfig())
	if st.VisiblePrimAfterLRZ != 2 {
		t.Fatalf("background prims = %d, want 2 triangles", st.VisiblePrimAfterLRZ)
	}
	wantPx := uint64(1080 * 2376)
	if st.VisiblePixelAfterLRZ != wantPx {
		t.Fatalf("pixels = %d, want %d", st.VisiblePixelAfterLRZ, wantPx)
	}
	// 1080/8 x 2376/8 tiles, all full (aligned).
	if st.FullTiles8x8 != uint64(135*297) {
		t.Fatalf("full tiles = %d, want %d", st.FullTiles8x8, 135*297)
	}
	if st.PartialTiles8x8 != 0 {
		t.Fatalf("partial tiles = %d on aligned full-screen quad", st.PartialTiles8x8)
	}
}

func TestOcclusionCullsLowerPrim(t *testing.T) {
	s := testScene()
	key := Quad(geom.XYWH(100, 100, 50, 50), false)
	popup := Quad(geom.XYWH(80, 60, 100, 120), true)
	s.Add(Layer{Z: 5, Name: "key", Prims: []Prim{key}})
	s.Add(Layer{Z: 10, Name: "popup", Prims: []Prim{popup}})

	damage := geom.XYWH(0, 0, 300, 300)
	st := Render(s, damage, DefaultConfig())

	// Background clipped to damage is NOT fully contained in the popup, so
	// it stays; the key IS fully inside the popup, so LRZ culls it.
	// Visible prims: background (2) + popup (2) = 4.
	if st.VisiblePrimAfterLRZ != 4 {
		t.Fatalf("visible prims = %d, want 4 (key must be culled)", st.VisiblePrimAfterLRZ)
	}
	// Submitted prims include the culled key: 6.
	if st.PCPrimitives != 6 {
		t.Fatalf("submitted prims = %d, want 6", st.PCPrimitives)
	}
	// LRZ assignment counts only opaque prims: background + popup = 4.
	if st.LRZAssignPrimitives != 4 {
		t.Fatalf("LRZ-assigned prims = %d, want 4", st.LRZAssignPrimitives)
	}
}

func TestOverdrawCountsTilesPerPrim(t *testing.T) {
	// Two translucent stacked quads on the same 64x64 area: both are drawn,
	// so every tile is counted twice (2x overdraw), plus the background.
	s := testScene()
	r := geom.XYWH(0, 0, 64, 64)
	s.Add(Layer{Z: 1, Name: "a", Prims: []Prim{Quad(r, false)}})
	s.Add(Layer{Z: 2, Name: "b", Prims: []Prim{Quad(r, false)}})
	st := Render(s, r, DefaultConfig())
	// background(64 full tiles) + a(64) + b(64) = 192
	if st.FullTiles8x8 != 192 {
		t.Fatalf("full tiles = %d, want 192 (3x overdraw)", st.FullTiles8x8)
	}
	if st.VisiblePixelAfterLRZ != 3*64*64 {
		t.Fatalf("pixels = %d, want %d", st.VisiblePixelAfterLRZ, 3*64*64)
	}
}

func TestOpaqueTopCullsEverythingBelow(t *testing.T) {
	s := testScene()
	r := geom.XYWH(0, 0, 64, 64)
	s.Add(Layer{Z: 1, Name: "mid", Prims: []Prim{Quad(r, false)}})
	s.Add(Layer{Z: 2, Name: "top", Prims: []Prim{Quad(r, true)}})
	st := Render(s, r, DefaultConfig())
	// Only the top quad survives: background and mid are fully covered.
	if st.VisiblePrimAfterLRZ != 2 {
		t.Fatalf("visible prims = %d, want 2", st.VisiblePrimAfterLRZ)
	}
	if st.FullTiles8x8 != 64 {
		t.Fatalf("full tiles = %d, want 64", st.FullTiles8x8)
	}
}

func TestDamageClipsWork(t *testing.T) {
	s := testScene()
	full := Render(s, s.Bounds(), DefaultConfig())
	half := Render(s, geom.XYWH(0, 0, 1080, 1188), DefaultConfig())
	if half.VisiblePixelAfterLRZ*2 != full.VisiblePixelAfterLRZ {
		t.Fatalf("half damage pixels = %d, full = %d", half.VisiblePixelAfterLRZ, full.VisiblePixelAfterLRZ)
	}
}

func TestGlyphPrims(t *testing.T) {
	box := geom.XYWH(500, 1800, 96, 120)
	g := glyph.MustLookup('o') // 4 strokes, 4 curves
	prims := GlyphPrims(g, box)
	if len(prims) != 4 {
		t.Fatalf("prims = %d, want 4", len(prims))
	}
	tess := glyph.TessFactor(120)
	wantTris := 2*4 + 4*tess
	total := 0
	for _, p := range prims {
		total += p.Tris
		if p.Opaque {
			t.Fatal("glyph strokes must not be opaque")
		}
	}
	if total != wantTris {
		t.Fatalf("glyph tris = %d, want %d", total, wantTris)
	}
}

func TestGlyphPrimsEmptyForSpace(t *testing.T) {
	if got := GlyphPrims(glyph.MustLookup(' '), geom.XYWH(0, 0, 96, 120)); got != nil {
		t.Fatalf("space produced prims: %v", got)
	}
}

func TestTextPrimsAdvance(t *testing.T) {
	line := geom.XYWH(100, 100, 400, 48)
	one := TextPrims("l", line, 32)
	two := TextPrims("ll", line, 32)
	if len(two) != 2*len(one) {
		t.Fatalf("two chars prims = %d, want %d", len(two), 2*len(one))
	}
	// Second glyph must be advanced, not overdrawn on the first.
	if two[0].Rect == two[1].Rect {
		t.Fatal("glyphs not advanced")
	}
}

func TestTextPrimsClipsAtFieldEnd(t *testing.T) {
	line := geom.XYWH(0, 0, 64, 48)
	long := TextPrims("llllllllllllllll", line, 32)
	if len(long) > 3 {
		t.Fatalf("text not clipped: %d prims", len(long))
	}
}

func TestDifferentGlyphsDifferentStats(t *testing.T) {
	cfg := DefaultConfig()
	stats := func(r rune) FrameStats {
		s := testScene()
		box := geom.XYWH(500, 1800, 96, 120)
		s.Add(Layer{Z: 10, Name: "popup", Prims: append([]Prim{Quad(box.Inset(-12), true)}, GlyphPrims(glyph.MustLookup(r), box)...)})
		return Render(s, box.Inset(-12), cfg)
	}
	w := stats('w')
	n := stats('n')
	if w == n {
		t.Fatal("'w' and 'n' frames identical — no side channel")
	}
	if w.VisiblePrimAfterLRZ == n.VisiblePrimAfterLRZ &&
		w.VisiblePixelAfterLRZ == n.VisiblePixelAfterLRZ {
		t.Fatal("'w' and 'n' indistinguishable on key counters")
	}
}

func TestSceneAddKeepsZOrder(t *testing.T) {
	s := &Scene{Screen: geom.Size{W: 100, H: 100}}
	s.Add(Layer{Z: 5, Name: "c"})
	s.Add(Layer{Z: 1, Name: "a"})
	s.Add(Layer{Z: 3, Name: "b"})
	names := []string{"a", "b", "c"}
	for i, l := range s.Layers {
		if l.Name != names[i] {
			t.Fatalf("layer %d = %q, want %q", i, l.Name, names[i])
		}
	}
}

func TestSceneRemove(t *testing.T) {
	s := &Scene{Screen: geom.Size{W: 100, H: 100}}
	s.Add(Layer{Z: 1, Name: "keep"})
	s.Add(Layer{Z: 2, Name: "popup"})
	s.Add(Layer{Z: 3, Name: "popup"})
	s.Remove("popup")
	if len(s.Layers) != 1 || s.Layers[0].Name != "keep" {
		t.Fatalf("Remove failed: %+v", s.Layers)
	}
}

func TestCloneIsolation(t *testing.T) {
	s := testScene()
	c := s.Clone()
	c.Add(Layer{Z: 9, Name: "extra"})
	if len(s.Layers) == len(c.Layers) {
		t.Fatal("Clone shares layer slice")
	}
}

func TestStatsAdd(t *testing.T) {
	a := FrameStats{VisiblePrimAfterLRZ: 1, TotalPixels: 10}
	b := FrameStats{VisiblePrimAfterLRZ: 2, TotalPixels: 5, SuperTiles: 7}
	a.Add(b)
	if a.VisiblePrimAfterLRZ != 3 || a.TotalPixels != 15 || a.SuperTiles != 7 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

// Property: rendering is deterministic and monotone in damage area.
func TestRenderMonotoneInDamage(t *testing.T) {
	s := testScene()
	s.Add(Layer{Z: 3, Name: "card", Prims: []Prim{Quad(geom.XYWH(40, 200, 1000, 600), false)}})
	cfg := DefaultConfig()
	f := func(w, h uint16) bool {
		small := geom.XYWH(0, 0, int(w)%1080, int(h)%2376)
		grown := geom.XYWH(0, 0, int(w)%1080+40, int(h)%2376+40)
		a := Render(s, small, cfg)
		b := Render(s, grown, cfg)
		return b.VisiblePixelAfterLRZ >= a.VisiblePixelAfterLRZ &&
			b.PCPrimitives >= a.PCPrimitives
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: submitted primitive count never falls below visible count.
func TestVisibleNeverExceedsSubmitted(t *testing.T) {
	s := testScene()
	box := geom.XYWH(300, 1700, 120, 150)
	for _, r := range glyph.Runes() {
		sc := s.Clone()
		sc.Add(Layer{Z: 10, Name: "popup", Prims: append([]Prim{Quad(box, true)}, GlyphPrims(glyph.MustLookup(r), box.Inset(12))...)})
		st := Render(&sc, box.Inset(-20), DefaultConfig())
		if st.VisiblePrimAfterLRZ > st.PCPrimitives {
			t.Fatalf("rune %q: visible %d > submitted %d", r, st.VisiblePrimAfterLRZ, st.PCPrimitives)
		}
	}
}

func TestAtlasQuadIsTwoTriangles(t *testing.T) {
	box := geom.XYWH(100, 100, 32, 48)
	for _, r := range "aw.•8" {
		p, ok := AtlasQuad(glyph.MustLookup(r), box)
		if !ok {
			t.Fatalf("no atlas quad for %q", r)
		}
		if p.Tris != 2 || p.Verts != 4 {
			t.Fatalf("atlas quad for %q has %d tris", r, p.Tris)
		}
		if !box.Contains(p.Rect) {
			t.Fatalf("atlas quad for %q escapes box", r)
		}
	}
	if _, ok := AtlasQuad(glyph.MustLookup(' '), box); ok {
		t.Fatal("space produced an atlas quad")
	}
}

func TestAtlasQuadsDifferInArea(t *testing.T) {
	box := geom.XYWH(0, 0, 32, 48)
	w, _ := AtlasQuad(glyph.MustLookup('w'), box)
	d, _ := AtlasQuad(glyph.MustLookup('.'), box)
	if w.Rect.Area() <= d.Rect.Area() {
		t.Fatal("atlas quad areas do not reflect ink extents")
	}
}

func TestAtlasTextPlusTwoPrimsPerChar(t *testing.T) {
	// The Figure-14 invariant: each additional character adds exactly one
	// quad (= 2 triangles) to the echo redraw.
	line := geom.XYWH(100, 100, 800, 48)
	for n := 1; n < 16; n++ {
		prims := AtlasTextPrims(string(make([]rune, 0))+"••••••••••••••••"[:0]+stringsRepeatBullet(n), line, 28)
		if len(prims) != n {
			t.Fatalf("n=%d: %d quads", n, len(prims))
		}
	}
}

func stringsRepeatBullet(n int) string {
	out := make([]rune, n)
	for i := range out {
		out[i] = '•'
	}
	return string(out)
}

// TestRenderLeavesPrimsUnchanged renders a scene whose layers mix opaque
// and translucent prims under several damage rects: every layer's prims
// must come out as they went in, since scenes share prim slices and the
// compositor reuses its keyboard layer across frames.
func TestRenderLeavesPrimsUnchanged(t *testing.T) {
	s := testScene()
	box := geom.XYWH(300, 1700, 120, 150)
	s.Add(Layer{Z: 5, Name: "text", Prims: TextPrims("Qgw8", geom.XYWH(40, 400, 600, 80), 60)})
	s.Add(Layer{Z: 10, Name: "popup", Prims: append([]Prim{Quad(box, true)}, GlyphPrims(glyph.MustLookup('q'), box.Inset(12))...)})
	before := snapshotPrims(s)
	for _, damage := range []geom.Rect{s.Bounds(), box, box.Inset(-20), geom.XYWH(50, 410, 90, 30)} {
		Render(s, damage, DefaultConfig())
		if after := snapshotPrims(s); !reflect.DeepEqual(after, before) {
			t.Fatalf("Render over %v changed a layer's prims", damage)
		}
	}
}
