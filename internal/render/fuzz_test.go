package render

import (
	"reflect"
	"testing"

	"gpuleak/internal/geom"
)

// quadraticRender is Render with the original LRZ pass, which tests
// every drawn primitive against every later one, opaque or not. Render
// must count exactly what it counts.
func quadraticRender(s *Scene, damage geom.Rect, cfg Config) FrameStats {
	var stats FrameStats
	damage = damage.Intersect(s.Bounds())
	if damage.Empty() {
		return stats
	}
	type drawn struct {
		clip   geom.Rect
		opaque bool
		tris   int
		verts  int
	}
	var list []drawn
	for _, l := range s.Layers {
		for _, p := range l.Prims {
			clip := p.Rect.Intersect(damage)
			if clip.Empty() {
				continue
			}
			list = append(list, drawn{clip: clip, opaque: p.Opaque, tris: p.Tris, verts: p.Verts})
		}
	}
	for i, d := range list {
		stats.PCPrimitives += uint64(d.tris)
		stats.SPComponents += uint64(d.verts * cfg.VertexComponents)
		if d.opaque {
			stats.LRZAssignPrimitives += uint64(d.tris)
		}
		culled := false
		for j := i + 1; j < len(list); j++ {
			if list[j].opaque && list[j].clip.Contains(d.clip) {
				culled = true
				break
			}
		}
		if culled {
			continue
		}
		area := uint64(d.clip.Area())
		stats.VisiblePrimAfterLRZ += uint64(d.tris)
		stats.VisiblePixelAfterLRZ += area
		stats.TotalPixels += area
		lrz := geom.Tiles(d.clip, cfg.LRZTileW, cfg.LRZTileH)
		stats.FullTiles8x8 += uint64(lrz.Full)
		stats.PartialTiles8x8 += uint64(lrz.Partial())
		ras := geom.Tiles(d.clip, cfg.RASTileW, cfg.RASTileH)
		stats.Tiles8x4 += uint64(ras.Touched)
		stats.FullyCovered8x4 += uint64(ras.Full)
		st := geom.Tiles(d.clip, cfg.SuperW, cfg.SuperH)
		stats.SuperTiles += uint64(st.Touched)
		stats.SupertileActiveCycles += uint64(st.Touched*16) + area/4
	}
	return stats
}

// Prim flag bits of a fuzzed scene: five bytes per primitive, a flag
// byte then four geometry bytes. The top two flag bits are a new layer's
// Z.
const (
	fuzzOpaque   = 1 << iota // the primitive is opaque
	fuzzNewLayer             // start a new layer, Z from the top flag bits
	fuzzEqual                // copy the rect of an earlier primitive
	fuzzNested               // inset an earlier primitive's rect
	fuzzEnclose              // outset an earlier primitive's rect
)

// fuzzMaxPrims bounds a fuzzed scene a little above a keyboard frame's
// ~250 prims, so the quadratic reference stays fast.
const fuzzMaxPrims = 320

// fuzzScene decodes a scene on a 320×320 screen. Fresh rects may run off
// screen; the shape bits derive equal, nested and enclosing rects from
// earlier primitives, which are the cases where LRZ containment decides.
func fuzzScene(data []byte) *Scene {
	if len(data) > 5*fuzzMaxPrims {
		data = data[:5*fuzzMaxPrims]
	}
	s := &Scene{Screen: geom.Size{W: 320, H: 320}}
	var rects []geom.Rect
	cur := Layer{Name: "fuzz"}
	flush := func() {
		if len(cur.Prims) > 0 {
			s.Add(cur)
		}
	}
	for ; len(data) >= 5; data = data[5:] {
		flags, a, b, c, d := data[0], int(data[1]), int(data[2]), int(data[3]), int(data[4])
		if flags&fuzzNewLayer != 0 {
			flush()
			cur = Layer{Z: int(flags >> 6), Name: "fuzz"}
		}
		r := geom.XYWH(a+a/4-16, b+b/4-16, c, d)
		if len(rects) > 0 {
			prev := rects[a%len(rects)]
			switch {
			case flags&fuzzEqual != 0:
				r = prev
			case flags&fuzzNested != 0:
				r = prev.Inset(c % 9)
			case flags&fuzzEnclose != 0:
				r = prev.Inset(-(c % 9))
			}
		}
		rects = append(rects, r)
		extra := b % 3 // curved glyph strokes carry extra triangles
		cur.Prims = append(cur.Prims, Prim{Rect: r, Opaque: flags&fuzzOpaque != 0, Tris: 2 + extra, Verts: 4 + 2*extra})
	}
	flush()
	return s
}

// snapshotPrims deep-copies every layer's primitives.
func snapshotPrims(s *Scene) [][]Prim {
	out := make([][]Prim, len(s.Layers))
	for i, l := range s.Layers {
		out[i] = append([]Prim(nil), l.Prims...)
	}
	return out
}

// FuzzRender checks Render's occluder-index LRZ pass against the
// quadratic one over generated scenes and damage rects: identical frame
// statistics, and every layer's primitives left as they were.
func FuzzRender(f *testing.F) {
	cfg := DefaultConfig()
	f.Fuzz(func(t *testing.T, x0, y0, x1, y1 int16, prims []byte) {
		s := fuzzScene(prims)
		damage := geom.Rect{X0: int(x0), Y0: int(y0), X1: int(x1), Y1: int(y1)}
		before := snapshotPrims(s)
		want := quadraticRender(s, damage, cfg)
		if got := Render(s, damage, cfg); got != want {
			t.Fatalf("Render = %+v, quadratic cull %+v", got, want)
		}
		if after := snapshotPrims(s); !reflect.DeepEqual(after, before) {
			t.Fatal("Render changed a layer's primitives")
		}
	})
}
