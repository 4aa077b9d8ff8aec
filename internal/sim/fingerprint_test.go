package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"

	"tivapromi/internal/dram"
	"tivapromi/internal/faults"
)

// jsonFingerprintInput is what Fingerprint hashed when it ran
// encoding/json: one Encoder writing the config, the technique and the
// sorted seed list.
func jsonFingerprintInput(cfg Config, technique string, seeds []uint64) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	sorted := append([]uint64(nil), seeds...)
	slices.Sort(sorted)
	for _, v := range []any{cfg, technique, sorted} {
		if err := enc.Encode(v); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// FuzzConfigFingerprint: for every finite Config, the hand-written
// encoder writes the bytes encoding/json writes.
func FuzzConfigFingerprint(f *testing.F) {
	negZero := math.Copysign(0, -1) // the constant -0.0 is +0
	f.Add("", "PARA", []byte{1, 3}, false, []byte{1, 0, 0, 0, 0, 0, 0, 0}, 0, 4, 1, 20, 0, uint64(1), 0.65,
		4, 0, 0, 16384, 1024, int8(0), uint32(8688), 45.0, 7800.0, 350.0, 1.2, 8192, 165, 0, 0.0, uint64(0))
	f.Add(`<hist&64>"\`, "é  \x00\x1f\x7f\xff", []byte{}, false, []byte{}, 3, -1, -7, 1<<40, 9,
		uint64(math.MaxUint64), 1e-7, 1, 2, 8, 65536, 8192, int8(2), uint32(math.MaxUint32),
		1e21, 5e-324, negZero, 1.7976931348623157e308, -3, math.MinInt64, 7, 1e-6, uint64(42))
	f.Add("x", "", []byte(nil), true, []byte{9, 9, 9, 9, 9, 9, 9, 9, 1}, 1, 2, 3, 4, 5, uint64(6), negZero,
		-1, -2, -3, 0, 0, int8(-1), uint32(0), 123456789.125, 1e20, 9.999999e-7, 2.5e-10, 0, 0, -1, 0.5, uint64(7))
	f.Fuzz(func(t *testing.T, label, tech string, banks []byte, nilBanks bool, seedBytes []byte,
		policy, windows, minAgg, maxAgg, remap int, seed uint64, share float64,
		pBanks, ranks, groups, rows, refInt int, state int8, flip uint32,
		trc, trefi, trfc, freq float64, rowBytes, maxActs, model int, rate float64, faultSeed uint64) {
		cfg := Config{
			Params: dram.Params{
				Banks: pBanks, Ranks: ranks, BankGroups: groups, RowsPerBank: rows,
				State: dram.StateMode(state), RefInt: refInt, FlipThreshold: flip,
				TRCNs: trc, TRefIntNs: trefi, TRFCNs: trfc, IOFreqGHz: freq,
				RowBytes: rowBytes, MaxActsPerRI: maxActs,
			},
			Policy: PolicyKind(policy), Windows: windows,
			MinAggressors: minAgg, MaxAggressors: maxAgg, AttackShare: share,
			RemapSwaps: remap, Seed: seed, FactoryLabel: label,
			Fault: faults.Plan{Model: faults.Model(model), Rate: rate, Seed: faultSeed},
		}
		if !nilBanks {
			cfg.AttackBanks = []int{}
			for _, b := range banks {
				cfg.AttackBanks = append(cfg.AttackBanks, int(int8(b))*1000003)
			}
		}
		var seeds []uint64
		for ; len(seedBytes) > 0; seedBytes = seedBytes[min(8, len(seedBytes)):] {
			var word [8]byte
			copy(word[:], seedBytes)
			seeds = append(seeds, binary.LittleEndian.Uint64(word[:]))
		}
		want, err := jsonFingerprintInput(cfg, tech, seeds)
		if err != nil {
			return // a non-finite float: encoding/json has no encoding to match
		}
		if got := appendFingerprintInput(nil, cfg, tech, seeds); !bytes.Equal(got, want) {
			t.Fatalf("fingerprint input differs from encoding/json's\n got: %s\nwant: %s", got, want)
		}
	})
}

// TestFingerprintCoversEveryField guards the hand-written encoder
// against a field added to Config, dram.Params or faults.Plan: it sets
// every field, one after another, to a non-zero value and requires the
// encoder to keep writing what encoding/json writes. A field of a kind
// this test cannot set fails it, so the encoder and this test are
// taught about it together.
func TestFingerprintCoversEveryField(t *testing.T) {
	var cfg Config
	check := func(field string) {
		t.Helper()
		want, err := jsonFingerprintInput(cfg, "PARA", []uint64{2, 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFingerprintInput(nil, cfg, "PARA", []uint64{2, 1}); !bytes.Equal(got, want) {
			t.Fatalf("after setting %s, the encoder writes\n%s\nbut encoding/json writes\n%s", field, got, want)
		}
	}
	check("nothing")
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, sf := v.Field(i), v.Type().Field(i)
			name := path + "." + sf.Name
			switch f.Kind() {
			case reflect.Struct:
				walk(f, name)
				continue
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				f.SetInt(3)
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				f.SetUint(3)
			case reflect.Float32, reflect.Float64:
				f.SetFloat(2.5)
			case reflect.String:
				f.SetString("<label>")
			case reflect.Slice:
				f.Set(reflect.MakeSlice(f.Type(), 2, 2))
			case reflect.Func:
				if sf.Tag.Get("json") != "-" {
					t.Fatalf("%s is a func that encoding/json would refuse", name)
				}
				continue
			default:
				t.Fatalf("%s has kind %s: teach appendConfig and this test about it", name, f.Kind())
			}
			check(name)
		}
	}
	walk(reflect.ValueOf(&cfg).Elem(), "Config")
}

// TestValidateRefusesNonFinite: a NaN or infinite float anywhere in a
// Config fails Validate, and such configs keep fingerprints of their
// own. (Fingerprint once dropped the config from the hash when
// encoding/json refused it, so all three shared one key.)
func TestValidateRefusesNonFinite(t *testing.T) {
	base := DefaultConfig()
	share, rate, trc := base, base, base
	share.AttackShare = math.NaN()
	rate.Fault = faults.Plan{Model: faults.StateSEU, Rate: math.NaN(), Seed: 1}
	trc.Params.TRCNs = math.Inf(1)
	seen := map[string]string{Fingerprint(base, "PARA", nil): "the base config"}
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"AttackShare = NaN", share}, {"Fault.Rate = NaN", rate}, {"Params.TRCNs = +Inf", trc}} {
		if err := c.cfg.Validate(); err == nil {
			t.Errorf("%s passes Validate", c.name)
		}
		fp := Fingerprint(c.cfg, "PARA", nil)
		if other, dup := seen[fp]; dup {
			t.Errorf("%s has the fingerprint of %s (%s)", c.name, other, fp)
		}
		seen[fp] = c.name
	}
}
