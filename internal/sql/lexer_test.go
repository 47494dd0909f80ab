package sql

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestLexBasics(t *testing.T) {
	toks, err := lex("SELECT sum(a_b) FROM t WHERE x >= 10 AND y <> 'hi there';")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.kind == tokEOF {
			break
		}
		texts = append(texts, tk.text)
	}
	want := []string{"select", "sum", "(", "a_b", ")", "from", "t", "where",
		"x", ">=", "10", "and", "y", "<>", "hi there", ";"}
	if len(texts) != len(want) {
		t.Fatalf("tokens = %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := lex("SELECT 'open"); err == nil {
		t.Error("expected unterminated-string error")
	}
	if _, err := lex("SELECT #"); err == nil {
		t.Error("expected bad-character error")
	}
}

// Property: lexing never panics and always terminates with EOF for inputs
// restricted to the token alphabet.
func TestLexTotalQuick(t *testing.T) {
	alphabet := []byte("abcz01 ,;()'=<>+-*/\t\n_")
	f := func(seedBytes []byte) bool {
		buf := make([]byte, len(seedBytes))
		for i, b := range seedBytes {
			buf[i] = alphabet[int(b)%len(alphabet)]
		}
		toks, err := lex(string(buf))
		if err != nil {
			return true // rejected inputs are fine; no panic is the property
		}
		return len(toks) > 0 && toks[len(toks)-1].kind == tokEOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestLexKeepsNoTokenCopies: a keyword lexes to its lower-case spelling in
// any case, and no token's text is a string of its own, so lexing a
// statement allocates for the token slice alone, whose appends double it.
func TestLexKeepsNoTokenCopies(t *testing.T) {
	const stmt = `SELECT SUM(lo_revenue) AS revenue, d_year, p_brand1 FROM lineorder, date, part, supplier
		WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey
		  AND p_brand1 BETWEEN 'MFGR#2221' AND 'MFGR#2228' AND s_region In ('ASIA')
		GROUP BY d_year, p_brand1 ORDER BY d_year Asc, p_brand1 DeSc;`
	toks, err := lex(stmt)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, tk := range toks {
		seen[tk.text] = true
	}
	for w := range keywords {
		if !seen[w] {
			t.Errorf("keyword %q not lexed in lower case", w)
		}
	}
	growths := bits.Len(uint(len(toks))) + 1
	if allocs := testing.AllocsPerRun(20, func() { lex(stmt) }); allocs > float64(growths) {
		t.Errorf("lexing %d tokens allocates %v times, want at most the token slice's %d growths", len(toks), allocs, growths)
	}
}
