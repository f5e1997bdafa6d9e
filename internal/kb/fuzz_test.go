package kb

import "testing"

// FuzzParseObject checks that ParseObject never panics and that accepted
// inputs round-trip through Object.String.
func FuzzParseObject(f *testing.F) {
	f.Add("e:/m/07r1h")
	f.Add("s:Syracuse NY")
	f.Add("n:1986")
	f.Add("n:-3.25e2")
	f.Add("")
	f.Add("x:unknown")
	f.Add("n:notanumber")
	f.Add("n:NaN")
	f.Add("s:")
	f.Fuzz(func(t *testing.T, in string) {
		obj, err := ParseObject(in)
		if err != nil {
			return
		}
		re, err2 := ParseObject(obj.String())
		if err2 != nil {
			t.Fatalf("round trip of accepted input %q failed: %v", in, err2)
		}
		// Numbers may normalize (1986.0 vs 1986); everything else must be
		// exactly stable.
		if obj.Kind != KindNumber && re != obj {
			t.Fatalf("unstable round trip: %q -> %v -> %v", in, obj, re)
		}
		if obj.Kind == KindNumber && re.Num != obj.Num {
			t.Fatalf("number value drifted: %v -> %v", obj.Num, re.Num)
		}
	})
}

// FuzzParseTriple checks ParseTriple against arbitrary input and round-trips
// accepted triples through Encode.
func FuzzParseTriple(f *testing.F) {
	f.Add("/m/1\t/p/x\ts:value")
	f.Add("/m/1\t/p/x\te:/m/2")
	f.Add("/m/1\t/p/x\tn:42")
	f.Add("no tabs at all")
	f.Add("a\tb")
	f.Add("a\tb\tc\td")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ParseTriple(in)
		if err != nil {
			return
		}
		re, err2 := ParseTriple(tr.Encode())
		if err2 != nil {
			t.Fatalf("round trip of accepted input %q failed: %v", in, err2)
		}
		if re.Subject != tr.Subject || re.Predicate != tr.Predicate || re.Object.Kind != tr.Object.Kind {
			t.Fatalf("unstable round trip: %q -> %v -> %v", in, tr, re)
		}
	})
}
