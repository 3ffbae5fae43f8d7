package lint

import (
	"errors"
	"strings"
	"testing"
)

// FuzzAllowAnnotation fuzzes the //oarsmt:allow grammar: parseAllow must
// never panic, every outcome must be one of the three declared grammar
// errors (so collectAnnotations always turns a malformed annotation into
// a finding instead of silently dropping it), and every accepted parse
// must survive the format -> parse round trip unchanged.
func FuzzAllowAnnotation(f *testing.F) {
	for _, seed := range []string{
		"//oarsmt:allow dettaint(order-insensitive sum)",
		"//oarsmt:allow dettaint(timing only) trailing prose",
		"//oarsmt:allow rawgo()",
		"//oarsmt:allow rawgo(   )",
		"//oarsmt:allow",
		"//oarsmt:allow\tdetmap(tab separator)",
		"//oarsmt:allow detmap reason without parens",
		"//oarsmt:allow )backwards(",
		"//oarsmt:allow (no analyzer)",
		"// plain comment",
		"//oarsmt:allowdetmap(missing space)",
		"//oarsmt:allow détmap(unicode名 reason)",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		analyzer, reason, err := parseAllow(text)

		switch {
		case err == nil:
		case errors.Is(err, errAllowNotAnnotation),
			errors.Is(err, errAllowMalformed),
			errors.Is(err, errAllowEmptyReason):
			// Each of these maps to a deterministic collectAnnotations
			// outcome: skip, or a grammar finding.
		default:
			t.Fatalf("parseAllow(%q) returned an undeclared error %v", text, err)
		}

		// Anything carrying the annotation prefix must be claimed by the
		// grammar: either parsed or reported, never silently ignored.
		if strings.HasPrefix(text, allowPrefix) && errors.Is(err, errAllowNotAnnotation) {
			t.Fatalf("parseAllow(%q) disowned a prefixed comment", text)
		}
		if err != nil {
			return
		}

		if analyzer == "" || reason == "" {
			t.Fatalf("parseAllow(%q) accepted empty analyzer %q or reason %q", text, analyzer, reason)
		}
		// The round-trip property formatAllow documents. (Byte validity is
		// deliberately not the grammar's concern: garbage in, garbage out,
		// as long as it round-trips.)
		canon := formatAllow(analyzer, reason)
		a2, r2, err2 := parseAllow(canon)
		if err2 != nil {
			t.Fatalf("formatAllow(%q, %q) = %q does not re-parse: %v", analyzer, reason, canon, err2)
		}
		if a2 != analyzer || r2 != reason {
			t.Fatalf("round trip changed (%q, %q) -> (%q, %q) via %q", analyzer, reason, a2, r2, canon)
		}
		// And formatting is a fixpoint: re-formatting the re-parse yields
		// the identical canonical text.
		if canon2 := formatAllow(a2, r2); canon2 != canon {
			t.Fatalf("formatAllow is not a fixpoint: %q -> %q", canon, canon2)
		}
	})
}
