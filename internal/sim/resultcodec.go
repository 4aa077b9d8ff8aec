package sim

import "tivapromi/internal/jsonlit"

// decodeResult decodes a checkpoint sweep payload: the flat object
// json.Marshal writes for a Result, every field in declaration order,
// without whitespace. It reads nothing else, so a payload of another
// shape is refused (the record is damage and its run re-simulates). On
// what it accepts it agrees with json.Unmarshal: FuzzResultPayload holds
// it to that. A field added to Result must be added here in the same
// position.
func decodeResult(b []byte, names nameTab) (Result, bool) {
	d := resultDecoder{b: b, names: names, ok: true}
	// The calls run in lexical order, which is the payload's field order.
	r := Result{
		Technique:          d.str(`{"Technique":`),
		Policy:             d.str(`,"Policy":`),
		Seed:               d.uint(`,"Seed":`),
		TotalActs:          d.uint(`,"TotalActs":`),
		AttackerActs:       d.uint(`,"AttackerActs":`),
		ExtraActs:          d.uint(`,"ExtraActs":`),
		FalseActs:          d.uint(`,"FalseActs":`),
		OverheadPct:        d.float(`,"OverheadPct":`),
		FPRPct:             d.float(`,"FPRPct":`),
		Flips:              d.int(`,"Flips":`),
		TableBytes:         d.int(`,"TableBytes":`),
		AvgActsPerInterval: d.float(`,"AvgActsPerInterval":`),
		MaxActsPerInterval: d.uint(`,"MaxActsPerInterval":`),
		InjectedFaults:     d.uint(`,"InjectedFaults":`),
		DroppedCmds:        d.uint(`,"DroppedCmds":`),
		DelayedCmds:        d.uint(`,"DelayedCmds":`),
	}
	d.key(`}`)
	return r, d.ok && len(d.b) == 0
}

// resultDecoder walks a payload field by field. ok turns false at the
// first mismatch and stays false; every later read is a no-op.
type resultDecoder struct {
	b     []byte
	names nameTab
	ok    bool
}

// key consumes the literal text that precedes a value.
func (d *resultDecoder) key(lit string) {
	if d.ok && len(d.b) >= len(lit) && string(d.b[:len(lit)]) == lit {
		d.b = d.b[len(lit):]
		return
	}
	d.ok = false
}

// advance consumes a value of n bytes, or fails the decode.
func (d *resultDecoder) advance(n int, ok bool) bool {
	if d.ok = ok; ok {
		d.b = d.b[n:]
	}
	return ok
}

func (d *resultDecoder) str(key string) string {
	if d.key(key); !d.ok {
		return ""
	}
	v, n, ok := jsonlit.String(d.b)
	if !d.advance(n, ok) {
		return ""
	}
	return d.names.intern(v)
}

func (d *resultDecoder) uint(key string) uint64 {
	if d.key(key); !d.ok {
		return 0
	}
	v, n, ok := jsonlit.Uint(d.b)
	d.advance(n, ok)
	return v
}

func (d *resultDecoder) int(key string) int {
	if d.key(key); !d.ok {
		return 0
	}
	v, n, ok := jsonlit.Int(d.b)
	d.advance(n, ok)
	return v
}

func (d *resultDecoder) float(key string) float64 {
	if d.key(key); !d.ok {
		return 0
	}
	v, n, ok := jsonlit.Float(d.b)
	d.advance(n, ok)
	return v
}

// nameTab interns the few distinct technique and policy names a
// checkpoint repeats in every sweep record.
type nameTab map[string]string

func (t nameTab) intern(b []byte) string {
	if s, ok := t[string(b)]; ok {
		return s
	}
	s := string(b)
	t[s] = s
	return s
}
