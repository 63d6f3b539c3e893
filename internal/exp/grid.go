package exp

import (
	"context"
	"fmt"
	"slices"

	"gpuleak/internal/attack"
	"gpuleak/internal/defense"
	"gpuleak/internal/fault"
	"gpuleak/internal/input"
	"gpuleak/internal/obs"
	"gpuleak/internal/parallel"
	"gpuleak/internal/sim"
	"gpuleak/internal/victim"
)

// The grid harness behind every session experiment: a list of cells,
// each replayed over the same number of trials, index i = cell·trials +
// trial. The harness derives every index's victim session serially in
// index order (so cells may share RNG draws), creates every index's
// telemetry track in the same order, and only then fans the sessions out
// over o.Workers into index-addressed slots. Results and telemetry are
// therefore identical at any worker count, and o.Ctx stops the grid
// between sessions and inside the sampler.

// cell is one column of a grid: the victim configuration, how each trial
// derives its session, and the attacker the per-trial body runs.
type cell struct {
	cfg victim.Config
	// trial derives trial t's victim seed and input script. The harness
	// calls it serially — cells in order, t ascending within a cell.
	trial func(t int) (seed int64, script input.Script)

	// model (nil: cfg's cached model, trained before any session runs),
	// interval (0: attack.DefaultInterval) and opts configure the
	// attacker.
	model    *attack.Model
	interval sim.Time
	opts     attack.OnlineOptions

	// The read-path stack of a sweep cell (zero: the bare device): a KGSL
	// fault plane seeded per index with fault.Seed(o.Seed, i) and a
	// defense armed at strength, seeded with defense.Seed(o.Seed, i).
	fault    fault.Profile
	defense  defense.Policy
	strength float64
}

// grid is a cells × trials run.
type grid struct {
	cells  []cell
	trials int
	// track names index i's telemetry child "<track>/%04d" when o.Obs is
	// set (empty: "trial").
	track string
}

// runGrid runs body once per index on a fresh victim session that has
// already typed its script, fanned out over o.Workers; tr is the index's
// telemetry track (nil without o.Obs).
func runGrid[T any](o Options, g grid, body func(i int, c *cell, sess *victim.Session, tr *obs.Tracer) (T, error)) ([]T, error) {
	cells := slices.Clone(g.cells)
	var untrained []victim.Config
	for _, c := range cells {
		if c.model == nil {
			untrained = append(untrained, c.cfg)
		}
	}
	models, err := trainAll(o, untrained)
	if err != nil {
		return nil, err
	}
	for ci := range cells {
		if cells[ci].model == nil {
			cells[ci].model, models = models[0], models[1:]
		}
	}

	n := len(cells) * g.trials
	cfgs := make([]victim.Config, n)
	scripts := make([]input.Script, n)
	for i := range scripts {
		c := &cells[i/g.trials]
		cfgs[i] = c.cfg
		cfgs[i].Seed, scripts[i] = c.trial(i % g.trials)
	}
	tracks := make([]*obs.Tracer, n)
	if o.Obs != nil {
		track := g.track
		if track == "" {
			track = "trial"
		}
		for i := range tracks {
			tracks[i] = o.Obs.Child(fmt.Sprintf("%s/%04d", track, i))
		}
	}
	out := make([]T, n)
	err = parallel.ForEachCtx(o.Context(), o.Workers, n, func(i int) error {
		sess := victim.New(cfgs[i])
		sess.Run(scripts[i])
		var err error
		out[i], err = body(i, &cells[i/g.trials], sess, tracks[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// typing is the common trial derivation, every seed constant held as
// data: trial t's victim is seeded seed + stride·t and types a random
// credential drawn, in trial order, from one RNG seeded textSeed, with
// keystroke timing from an RNG seeded (victim seed ^ xor). A practical
// typing instead draws each credential from an RNG seeded with the
// trial's victim seed and scripts a §8 practical session from it.
type typing struct {
	textSeed, seed, stride, xor int64
	alphabet                    []rune
	// length is the credential length; span > 0 adds an Intn(span) draw
	// taken before the credential's runes.
	length, span int
	// vols[t % len(vols)] types trial t.
	vols      []input.Volunteer
	speed     input.Speed
	practical *input.PracticalOptions
}

// batch is the derivation of a typing batch and a sweep: 10-rune
// lowercase+digit credentials typed by vol at any speed, trial t seeded
// seed + 101·t.
func batch(seed int64, vol input.Volunteer) typing {
	return typing{textSeed: seed, seed: seed, stride: 101, xor: 0x5DEECE66D,
		alphabet: LowerDigits, length: 10, vols: []input.Volunteer{vol}, speed: input.SpeedAny}
}

// derive returns the cell.trial function of this derivation.
func (ty typing) derive() func(t int) (int64, input.Script) {
	texts := sim.NewRand(ty.textSeed)
	return func(t int) (int64, input.Script) {
		seed := ty.seed + int64(t)*ty.stride
		vol := ty.vols[t%len(ty.vols)]
		rng := texts
		if ty.practical != nil {
			rng = sim.NewRand(seed)
		}
		n := ty.length
		if ty.span > 0 {
			n += rng.Intn(ty.span)
		}
		text := input.RandomText(rng, ty.alphabet, n)
		if ty.practical != nil {
			return seed, input.Practical(text, vol, *ty.practical, rng, 700*sim.Millisecond)
		}
		return seed, input.Typing(text, vol, ty.speed, sim.NewRand(seed^ty.xor), 700*sim.Millisecond)
	}
}

// eavesdrop is the standard attacker: the cell's model samples the
// session's KGSL device and infers online, tr observing the device, the
// sampler and the engine.
func (c *cell) eavesdrop(ctx context.Context, sess *victim.Session, tr *obs.Tracer) (*attack.Result, error) {
	sess.Device.SetMetrics(tr.Metrics())
	f, err := sess.Open()
	if err != nil {
		return nil, err
	}
	interval := c.interval
	if interval == 0 {
		interval = attack.DefaultInterval
	}
	atk := &attack.Attack{Models: []*attack.Model{c.model}, Interval: interval, Options: c.opts, Obs: tr}
	return atk.EavesdropContext(ctx, f, 0, sess.End)
}

// eavesdropped is one trial of the standard attacker: what the victim
// typed and what the attack inferred.
type eavesdropped struct {
	truth string
	res   *attack.Result
}

// runEavesdrop runs the standard attacker over every index of a grid.
func runEavesdrop(o Options, g grid) ([]eavesdropped, error) {
	return runGrid(o, g, func(_ int, c *cell, sess *victim.Session, tr *obs.Tracer) (eavesdropped, error) {
		r, err := c.eavesdrop(o.Context(), sess, tr)
		return eavesdropped{truth: sess.TypedText(), res: r}, err
	})
}

// runBatches runs the standard attacker over a grid and aggregates each
// cell's trials into one BatchResult.
func runBatches(o Options, g grid) ([]*BatchResult, error) {
	out, err := runEavesdrop(o, g)
	if err != nil {
		return nil, err
	}
	batches := make([]*BatchResult, len(g.cells))
	for ci := range batches {
		b := &BatchResult{}
		for _, e := range out[ci*g.trials : (ci+1)*g.trials] {
			b.Inferred = append(b.Inferred, e.res.Text)
			b.Truth = append(b.Truth, e.truth)
			accumulate(&b.Stats, e.res.Stats)
		}
		batches[ci] = b
	}
	return batches, nil
}

// trainAll returns the (cached) model of every configuration, trained
// concurrently over o.Workers.
func trainAll(o Options, cfgs []victim.Config) ([]*attack.Model, error) {
	return parallel.MapCtx(o.Context(), o.Workers, len(cfgs), func(i int) (*attack.Model, error) {
		return TrainModelWorkers(cfgs[i], o.Workers)
	})
}
