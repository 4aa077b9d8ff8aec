package all

import (
	"testing"

	"tivapromi/internal/dram"
	"tivapromi/internal/mitigation"
)

// TestTableBytesIsClosedForm: for every registered technique, the
// registered sizer equals TableBytesPerBank of the instances its factory
// builds for the whole device and for one of its banks, at the paper,
// scaled and full-DIMM geometries.
func TestTableBytesIsClosedForm(t *testing.T) {
	for geom, p := range map[string]dram.Params{
		"paper":    dram.PaperParams(),
		"scaled":   dram.ScaledParams(),
		"fulldimm": dram.FullDIMMParams(),
	} {
		target := mitigation.Target{
			Banks: p.TotalBanks(), RowsPerBank: p.RowsPerBank,
			RefInt: p.RefInt, FlipThreshold: p.FlipThreshold,
		}
		for _, name := range mitigation.Names() {
			f, err := mitigation.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			got, err := mitigation.TableBytes(name, target)
			if err != nil {
				t.Fatal(err)
			}
			one := target
			one.Banks = 1
			for _, tg := range []mitigation.Target{target, one} {
				if want := f(tg, 1).TableBytesPerBank(); got != want {
					t.Errorf("%s at %s: sizer says %d B/bank, a %d-bank instance %d", name, geom, got, tg.Banks, want)
				}
			}
		}
	}
}
