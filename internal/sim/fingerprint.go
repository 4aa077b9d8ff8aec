package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"

	"tivapromi/internal/dram"
	"tivapromi/internal/faults"
	"tivapromi/internal/jsonlit"
)

// Fingerprint hashes the JSON encoding of the config (Factory is
// excluded via its json:"-" tag; FactoryLabel stands in for it), the
// technique name and the sorted seed set, so any change to the
// experiment changes the key instead of silently reusing results.
//
// The checkpoint keys sweep results with seeds == nil: a per-seed Result
// depends only on (config, technique, seed), and the seed is the entry's
// second key, so sweeps over overlapping seed lists share their runs
// (see NewSweep). The seed-list form identifies a whole sweep, for
// callers that name one; checkpoints written when sweeps were keyed by
// it miss once and re-simulate.
//
// The hashed bytes are exactly what an encoding/json Encoder writes for
// the three values in turn (each followed by a newline), but they are
// built by hand, without reflection; FuzzConfigFingerprint pins the two
// together. A non-finite float, which encoding/json cannot encode and
// Validate refuses, is written as strconv spells it, so such a config
// still gets a key of its own.
func Fingerprint(cfg Config, technique string, seeds []uint64) string {
	var buf [512]byte
	sum := sha256.Sum256(appendFingerprintInput(buf[:0], cfg, technique, seeds))
	return hex.EncodeToString(sum[:16])
}

// appendFingerprintInput appends the bytes Fingerprint hashes.
func appendFingerprintInput(b []byte, cfg Config, technique string, seeds []uint64) []byte {
	b = appendConfig(b, cfg)
	b = append(b, '\n')
	b = jsonlit.AppendString(b, technique)
	b = append(b, '\n')
	if len(seeds) == 0 {
		b = append(b, "null"...)
	} else {
		sorted := slices.Clone(seeds)
		slices.Sort(sorted)
		b = append(b, '[')
		for i, s := range sorted {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, s, 10)
		}
		b = append(b, ']')
	}
	return append(b, '\n')
}

// appendConfig appends cfg as encoding/json marshals it: fields in
// declaration order, Factory left out, nil AttackBanks as null.
func appendConfig(b []byte, c Config) []byte {
	b = appendParams(append(b, `{"Params":`...), c.Params)
	b = appendInt(b, `,"Policy":`, int64(c.Policy))
	b = appendInt(b, `,"Windows":`, int64(c.Windows))
	b = append(b, `,"AttackBanks":`...)
	if c.AttackBanks == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, bank := range c.AttackBanks {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(bank), 10)
		}
		b = append(b, ']')
	}
	b = appendInt(b, `,"MinAggressors":`, int64(c.MinAggressors))
	b = appendInt(b, `,"MaxAggressors":`, int64(c.MaxAggressors))
	b = appendFloat(b, `,"AttackShare":`, c.AttackShare)
	b = appendInt(b, `,"RemapSwaps":`, int64(c.RemapSwaps))
	b = appendUint(b, `,"Seed":`, c.Seed)
	b = jsonlit.AppendString(append(b, `,"FactoryLabel":`...), c.FactoryLabel)
	b = appendPlan(append(b, `,"Fault":`...), c.Fault)
	return append(b, '}')
}

// appendParams appends p as encoding/json marshals it, with Ranks,
// BankGroups and State omitted when zero.
func appendParams(b []byte, p dram.Params) []byte {
	b = appendInt(b, `{"Banks":`, int64(p.Banks))
	if p.Ranks != 0 {
		b = appendInt(b, `,"Ranks":`, int64(p.Ranks))
	}
	if p.BankGroups != 0 {
		b = appendInt(b, `,"BankGroups":`, int64(p.BankGroups))
	}
	b = appendInt(b, `,"RowsPerBank":`, int64(p.RowsPerBank))
	if p.State != 0 {
		b = appendInt(b, `,"State":`, int64(p.State))
	}
	b = appendInt(b, `,"RefInt":`, int64(p.RefInt))
	b = appendUint(b, `,"FlipThreshold":`, uint64(p.FlipThreshold))
	b = appendFloat(b, `,"TRCNs":`, p.TRCNs)
	b = appendFloat(b, `,"TRefIntNs":`, p.TRefIntNs)
	b = appendFloat(b, `,"TRFCNs":`, p.TRFCNs)
	b = appendFloat(b, `,"IOFreqGHz":`, p.IOFreqGHz)
	b = appendInt(b, `,"RowBytes":`, int64(p.RowBytes))
	b = appendInt(b, `,"MaxActsPerRI":`, int64(p.MaxActsPerRI))
	return append(b, '}')
}

// appendPlan appends p as encoding/json marshals it.
func appendPlan(b []byte, p faults.Plan) []byte {
	b = appendInt(b, `{"Model":`, int64(p.Model))
	b = appendFloat(b, `,"Rate":`, p.Rate)
	b = appendUint(b, `,"Seed":`, p.Seed)
	return append(b, '}')
}

// appendInt, appendUint and appendFloat append a key (with its
// punctuation) and a number.
func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

func appendUint(b []byte, key string, v uint64) []byte {
	return strconv.AppendUint(append(b, key...), v, 10)
}

func appendFloat(b []byte, key string, v float64) []byte {
	return jsonlit.AppendFloat(append(b, key...), v)
}

// ProbeFingerprint derives the checkpoint key for one probe cell from
// its stable cell key. The key must encode every parameter the probe's
// result depends on (device scale, seeds, trial counts); the campaign
// layer's key builders guarantee that.
func ProbeFingerprint(key string) string {
	h := sha256.Sum256([]byte("probe\x00" + key))
	return hex.EncodeToString(h[:16])
}
