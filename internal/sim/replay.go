package sim

import (
	"fmt"
	"io"

	"tivapromi/internal/dram"
	"tivapromi/internal/mitigation"
	"tivapromi/internal/trace"
)

// ReplayTrace drives a recorded activation trace through a device and a
// mitigation ("" for none) and returns the same metrics as Run, except
// that false-positive accounting is unavailable (a trace carries no
// attack ground truth). flipThreshold overrides the device's threshold;
// pass 0 for the DDR4 default of 139 K.
func ReplayTrace(r *trace.Reader, technique string, flipThreshold uint32) (Result, error) {
	h := r.Header()
	p := dram.PaperParams()
	p.Banks = h.Banks
	p.RowsPerBank = h.RowsPerBank
	p.RefInt = h.RefInt
	if flipThreshold != 0 {
		p.FlipThreshold = flipThreshold
	}
	if err := p.Validate(); err != nil {
		return Result{}, fmt.Errorf("sim: trace header: %w", err)
	}
	dev, err := dram.New(p, nil)
	if err != nil {
		return Result{}, err
	}
	var mit mitigation.Mitigator
	if technique != "" {
		factory, err := mitigation.Lookup(technique)
		if err != nil {
			return Result{}, err
		}
		mit = factory(mitigation.Target{
			Banks: p.Banks, RowsPerBank: p.RowsPerBank, RefInt: p.RefInt,
			FlipThreshold: p.FlipThreshold,
		}, 1)
	}

	res := Result{Technique: techniqueName(mit), Policy: dev.Policy().Name()}
	var cmds []mitigation.Command
	exec := func() {
		for _, cmd := range cmds {
			res.ExtraActs++
			switch cmd.Kind {
			case mitigation.ActN:
				dev.ActivateNeighbors(cmd.Bank, cmd.Row)
			case mitigation.ActNOne:
				dev.ActivateNeighbor(cmd.Bank, cmd.Row, int(cmd.Side))
			case mitigation.RefreshRow:
				dev.RefreshRow(cmd.Bank, cmd.Row)
			}
		}
		cmds = cmds[:0]
	}
	err = r.ForEach(func(ev trace.Event) error {
		switch ev.Kind {
		case trace.KindAct:
			dev.Activate(ev.Bank, ev.Row)
			if mit != nil {
				cmds = mit.OnActivate(ev.Bank, ev.Row, dev.IntervalInWindow(), cmds)
				exec()
			}
		case trace.KindIntervalEnd:
			if mit != nil {
				cmds = mit.OnRefreshInterval(dev.IntervalInWindow(), cmds)
				exec()
			}
			dev.AdvanceInterval()
			if mit != nil && dev.IntervalInWindow() == 0 {
				mit.OnNewWindow()
			}
		}
		return nil
	})
	if err != nil && err != io.EOF {
		return Result{}, err
	}
	ds := dev.Stats()
	res.TotalActs = ds.Activates
	if res.TotalActs > 0 {
		res.OverheadPct = 100 * float64(res.ExtraActs) / float64(res.TotalActs)
	}
	res.Flips = int(dev.FlipCount())
	if mit != nil {
		res.TableBytes = mit.TableBytesPerBank()
	}
	res.AvgActsPerInterval = ds.AvgActsPerInterval()
	res.MaxActsPerInterval = ds.MaxActsInIntv
	return res, nil
}

// RecordTrace runs the configured workload+attacker (without any
// mitigation) and writes the resulting activation trace — the equivalent
// of capturing a gem5 run for later replay. Unlike RunCtx's lazy catch-up,
// the recorder fires every lane's refresh boundary eagerly at each
// interval crossing, so the trace carries exactly one IntervalEnd per
// global interval, placed after that interval's activations.
func RecordTrace(cfg Config, w *trace.Writer) error {
	g, err := prepareGroup([]Member{{Config: cfg}})
	if err != nil {
		return err
	}
	src, env := g.src, g.envs[0]
	var werr error
	for b, l := range env.lanes {
		bank := b
		onInterval := func() {}
		if b == 0 {
			// One IntervalEnd per global interval; lane 0 fires first at
			// every eager catch-up below.
			onInterval = func() {
				if werr == nil {
					werr = w.WriteIntervalEnd()
				}
			}
		}
		l.Device().SetObserver(
			func(_, row int) {
				if werr == nil {
					werr = w.WriteAct(bank, row)
				}
			},
			onInterval,
		)
	}
	catchUpAll := func(iv int) {
		for _, l := range env.lanes {
			l.CatchUp(iv)
		}
	}
	iv, rem := 0, src.api
	for i := 0; i < src.total(); i++ {
		a := src.st.gen()
		if rem == 0 {
			iv++
			rem = src.api
			catchUpAll(iv)
		}
		rem--
		env.lanes[a.Bank].Access(int32(a.Row))
	}
	catchUpAll(src.intervals)
	if werr != nil {
		return werr
	}
	return w.Flush()
}
