package sql

import (
	"testing"

	"clydesdale/internal/core"
	"clydesdale/internal/plan"
)

// FuzzParse feeds arbitrary text to the SQL front end bound to the SSB
// catalog. No input may panic the lexer, the parser or the binder, and a
// statement Parse accepts is one the engines must be able to run: it has to
// decompose and lower (plan.Lower does both) without error. Seeded with the
// 13 SSB statements and the statements TestParseErrors rejects; `make
// fuzz-smoke` runs it for five seconds.
func FuzzParse(f *testing.F) {
	for _, text := range ssbSQL {
		f.Add(text)
	}
	for _, c := range parseErrorCases {
		f.Add(c.text)
	}
	star := ssbStar()
	cat := &core.Catalog{FactName: star.Fact, FactSchema: star.FactSchema, DimSchemas: star.Dims}
	f.Fuzz(func(t *testing.T, text string) {
		l, err := Parse(text, cat)
		if err != nil {
			return
		}
		if _, err := plan.Lower(l); err != nil {
			t.Fatalf("Parse accepted %q but it does not lower: %v", text, err)
		}
	})
}
