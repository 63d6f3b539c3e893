// Command attackd demonstrates the end-to-end attack: it simulates a
// victim device on which a user types a credential into a banking app,
// then runs the attacking application (counter sampler + device
// recognition + online inference engine) against the device file and
// prints what was eavesdropped.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"gpuleak/internal/android"
	"gpuleak/internal/attack"
	"gpuleak/internal/channel"
	"gpuleak/internal/defense"
	"gpuleak/internal/fault"
	"gpuleak/internal/input"
	"gpuleak/internal/keyboard"
	"gpuleak/internal/obs"
	"gpuleak/internal/sim"
	"gpuleak/internal/stats"
	"gpuleak/internal/victim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("attackd: ")

	device := flag.String("device", "OnePlus 8 Pro", "victim device model")
	app := flag.String("app", "Chase", "target application")
	kb := flag.String("keyboard", "gboard", "on-screen keyboard")
	text := flag.String("text", "hunter2pass", "credential the victim types")
	volunteer := flag.Int("volunteer", 0, "typing profile 0-4")
	modelPath := flag.String("model", "", "pretrained model JSON (default: train on the fly)")
	seed := flag.Int64("seed", 42, "simulation seed")
	practical := flag.Bool("practical", false, "inject corrections/app switches (§8 behavior)")
	traceOut := flag.String("trace", "", "write the raw counter trace as CSV")
	monitor := flag.Bool("monitor", false, "start with the Figure-4 monitoring service: the victim uses another app first, the attack waits for the target launch")
	faults := flag.String("faults", "", "inject device faults from this profile (none,mild,moderate,severe,starve) and arm the retry policy")
	faultSeed := flag.Int64("fault-seed", 0, "fault schedule seed (default: derived from -seed)")
	var obsFlags obs.Flags
	obsFlags.Register(flag.CommandLine)
	flag.Parse()

	stopProfiles, err := obsFlags.StartProfiles()
	if err != nil {
		log.Fatal(err)
	}
	tracer := obsFlags.Tracer()

	dev, ok := android.DeviceByName(*device)
	if !ok {
		log.Fatalf("unknown device %q", *device)
	}
	layout := keyboard.ByName(*kb)
	if layout == nil {
		log.Fatalf("unknown keyboard %q", *kb)
	}
	target, ok := android.AppByName(*app)
	if !ok {
		log.Fatalf("unknown app %q", *app)
	}
	if *volunteer < 0 || *volunteer >= len(input.Volunteers) {
		log.Fatalf("volunteer must be 0-%d", len(input.Volunteers)-1)
	}

	cfg := victim.Config{Device: dev, Keyboard: layout, App: target,
		Seed: *seed, RenderJitter: 0.0001}
	if *monitor {
		cfg.PreLaunch = 6 * sim.Second
	}

	// Offline phase (or load a preloaded model).
	var m *attack.Model
	if *modelPath != "" {
		f, err := os.Open(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		m, err = attack.ReadModel(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded model %s (%d keys)", m.Key, len(m.Keys))
	} else {
		log.Printf("offline phase: training classifier for %s / %s ...", dev.Name, layout.Name)
		train := cfg
		train.RenderJitter = 0
		var err error
		m, err = attack.Collect(train, attack.CollectOptions{Repeats: 2, Obs: tracer})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("trained %d key centroids, %d noise signatures", len(m.Keys), len(m.Noise))
	}

	// Victim session.
	vol := input.Volunteers[*volunteer]
	start := 700*sim.Millisecond + cfg.PreLaunch
	var script input.Script
	if *practical {
		script = input.Practical(*text, vol, input.DefaultPracticalOptions(), sim.NewRand(*seed+1), start)
	} else {
		script = input.Typing(*text, vol, input.SpeedAny, sim.NewRand(*seed+1), start)
	}
	sess := victim.New(cfg)
	sess.Run(script)
	log.Printf("victim: %s launches %s, types %d keys (%s profile)",
		dev.Name, target.Name, script.PressCount(), vol.Name)

	// Online phase.
	sess.Device.SetMetrics(tracer.Metrics())
	f, err := sess.Open()
	if err != nil {
		log.Fatalf("opening /dev/kgsl-3d0: %v", err)
	}
	atk := attack.New(m)
	atk.Obs = tracer
	df := attack.DeviceFile(f)
	var faultFile *fault.File
	if *faults != "" {
		p, ok := fault.ByName(*faults)
		if !ok {
			log.Fatalf("unknown fault profile %q (have %s)", *faults, strings.Join(fault.Names(), ","))
		}
		fs := *faultSeed
		if fs == 0 {
			fs = fault.Seed(*seed, 0)
		}
		st, err := defense.Wrap(channel.DefaultName, f, p, fs, nil)
		if err != nil {
			log.Fatal(err)
		}
		faultFile = st.Fault
		faultFile.Obs = tracer
		df = faultFile
		atk.Retry = st.Retry
		log.Printf("fault injection: profile %s (rate %.3f, fault seed %d), retry policy armed", p.Name, p.Rate(), fs)
	}
	var res *attack.Result
	if *monitor {
		mr, err := atk.MonitorAndEavesdrop(df, 0, sess.End, attack.MonitorOptions{})
		if err != nil {
			log.Fatalf("monitoring failed: %v", err)
		}
		if !mr.Detected {
			log.Fatalf("target app launch never detected")
		}
		log.Printf("monitor: target launch detected at %v after %d low-duty reads",
			mr.LaunchDetectedAt, mr.IdleReads)
		res = mr.Result
	} else if *traceOut != "" {
		// Collect explicitly so the raw trace can be archived.
		smp, err := attack.NewSamplerRetry(df, atk.Interval, atk.Retry)
		if err != nil {
			log.Fatal(err)
		}
		smp.Obs = tracer
		tr, err := smp.Collect(0, sess.End)
		if err != nil {
			log.Fatal(err)
		}
		out, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := tr.WriteCSV(out); err != nil {
			log.Fatal(err)
		}
		if err := out.Close(); err != nil {
			log.Fatalf("writing %s: %v", *traceOut, err)
		}
		log.Printf("wrote counter trace to %s (%d samples)", *traceOut, tr.Len())
		res, err = atk.EavesdropTrace(tr)
		if err != nil {
			log.Fatalf("eavesdropping failed: %v", err)
		}
		res.Recovery = smp.Stats
		res.Degraded = res.Degraded || smp.Stats.Degraded()
	} else {
		res, err = atk.Eavesdrop(df, 0, sess.End)
		if err != nil {
			log.Fatalf("eavesdropping failed: %v", err)
		}
	}

	truth := sess.TypedText()
	fmt.Println()
	fmt.Printf("  victim typed : %q\n", truth)
	fmt.Printf("  eavesdropped : %q\n", res.Text)
	fmt.Printf("  exact match  : %v\n", res.Text == truth)
	fmt.Printf("  edit distance: %d\n", stats.Levenshtein(res.Text, truth))
	fmt.Printf("  engine stats : %+v\n", res.Stats)
	fmt.Printf("  ioctl calls  : %d\n", sess.Device.IoctlCount())
	if faultFile != nil {
		fmt.Printf("  injected     : %+v (total %d)\n", faultFile.Stats, faultFile.Stats.Total())
		fmt.Printf("  recovery     : %+v (degraded=%v)\n", res.Recovery, res.Degraded)
	}

	if tracer != nil {
		if err := obsFlags.Write(tracer); err != nil {
			log.Fatalf("writing telemetry: %v", err)
		}
		log.Printf("wrote telemetry to %s (%d events, %s)",
			obsFlags.Path, tracer.Len(), obsFlags.Format)
	}
	if err := stopProfiles(); err != nil {
		log.Fatalf("writing profiles: %v", err)
	}
}
