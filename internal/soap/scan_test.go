package soap

import (
	"bytes"
	"encoding/base64"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// bulkEnvelope is a classifyBatch request the size the classify_bulk
// workload sends: 4096 rows x 11 float64 columns of dmb1, base64-wrapped.
func bulkEnvelope(t testing.TB) (Message, []byte) {
	t.Helper()
	block := make([]byte, 4096*11*8+600)
	rand.New(rand.NewSource(1)).Read(block)
	msg := Message{Operation: "classifyBatch", Trace: "4bf92f3577b34da6-00f067aa0ba902b7", Parts: map[string]string{
		"session":  "s-0123456789abcdef",
		"payload":  base64.StdEncoding.EncodeToString(block),
		"encoding": "dmb1",
	}}
	env, err := Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	return msg, env
}

// seed reads one committed FuzzUnmarshal corpus entry.
func seed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzUnmarshal", name))
	if err != nil {
		t.Fatal(err)
	}
	lit := strings.TrimSuffix(strings.TrimPrefix(strings.SplitN(string(raw), "\n", 2)[1], "[]byte("), ")\n")
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("corpus entry %s: %v", name, err)
	}
	return []byte(s)
}

// TestScannerReadsCorpus pins what each committed corpus envelope means,
// on top of the agreement with the oracle that FuzzUnmarshal checks.
func TestScannerReadsCorpus(t *testing.T) {
	for name, want := range map[string]Message{
		"axis_prefixed_xsi_typed": {Operation: "classify", Parts: map[string]string{
			"dataset": "@relation r\n@data\n", "attribute": "Class"}},
		"cdata_part": {Operation: "op", Parts: map[string]string{"a": "<not> &markup; ]] ]>tail"}},
		"entity_charref_part": {Operation: "op", Parts: map[string]string{
			"a": "<>&'\" AB\U0001F600\r\uFFFD x\ny\nz"}},
		"comment_between_parts": {Operation: "op", Parts: map[string]string{"a": "1", "b": "23"}},
		"self_closing_part":     {Operation: "op", Parts: map[string]string{"a": "", "b": "", "c": "kept"}},
		"unknown_header_block": {Operation: "echo", Trace: "4bf92f35-00f067aa",
			Parts: map[string]string{"x": "last wins"}},
		"bom_and_standalone": {Operation: "op", Parts: map[string]string{"a": "1"}},
		"two_body_children_and_stray_text": {Operation: "late",
			Parts: map[string]string{"a": "1", "b": "2", "c": "3"}},
	} {
		got, err := Unmarshal(bytes.NewReader(seed(t, name)))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %+v, %v; want %+v", name, got, err, want)
		}
	}
	_, err := Unmarshal(bytes.NewReader(seed(t, "fault")))
	want := &Fault{Code: "soap:Server", String: "boom & bust", Detail: "stack"}
	if f, ok := err.(*Fault); !ok || !reflect.DeepEqual(f, want) {
		t.Errorf("fault: got %v, want %+v", err, want)
	}
}

func TestScannerRejects(t *testing.T) {
	for name, why := range map[string]string{
		"doctype":                "directive",
		"processing_instruction": "processing instruction",
		"latin1_declared":        "only UTF-8",
	} {
		msg, err := Unmarshal(bytes.NewReader(seed(t, name)))
		if err == nil || !strings.Contains(err.Error(), why) || !reflect.DeepEqual(msg, Message{}) {
			t.Errorf("%s: got %+v, %v; want an error naming the %s", name, msg, err, why)
		}
	}
	for _, doc := range []string{
		`<Envelope><Body><op><a>1</b></op></Body></Envelope>`,              // mismatched end tag
		`<s:Envelope xmlns:s="e"><s:Body><op/></s:Body></t:Envelope>`,      // same local name, other prefix
		`<Envelope><Body><op><a>&nbsp;</a></op></Body></Envelope>`,         // undeclared entity
		`<Envelope><Body><op><a>&#0;</a></op></Body></Envelope>`,           // reference outside the XML range
		`<Envelope><Body><op><a>` + "\x01" + `</a></op></Body></Envelope>`, // control character
		`<Envelope><Body><op><a>` + "\xff" + `</a></op></Body></Envelope>`, // invalid UTF-8
		`<Envelope><Body><op><a>]]></a></op></Body></Envelope>`,            // CDATA end in text
		`<Envelope><Body><op a="<"/></Body></Envelope>`,                    // '<' in an attribute
		`<Envelope><Body><op a=v/></Body></Envelope>`,                      // unquoted attribute
		`<Envelope><Body><op><!-- a -- b --></op></Body></Envelope>`,       // "--" in a comment
		`<Envelope><Body><op/></Body></Envelope></Envelope>`,               // end tag with nothing open
		`<Envelope><Body><donn` + "\u00e9" + `es/></Body></Envelope>`,      // non-ASCII name
		`<?xml version="1.1"?><Envelope><Body><op/></Body></Envelope>`,     // not XML 1.0
		` <?xml version="1.0"?><Envelope><Body><op/></Body></Envelope>`,    // declaration not first
	} {
		checkAgainstOracle(t, []byte(doc))
		if msg, err := Unmarshal(strings.NewReader(doc)); err == nil {
			t.Errorf("accepted %q as %+v", doc, msg)
		}
	}
}

// TestScannerMatchesOracleOnWriterOutput round-trips generated messages
// through both writers and both readers: an envelope the previous Marshal
// wrote parses to the same Message, and the two writers agree on bytes.
func TestScannerMatchesOracleOnWriterOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []rune("ab <>&\"'\t\n\r]]>\u00e9\u2603\U0001F600\x00\x1f\uFFFE")
	text := func() string {
		var b strings.Builder
		for n := rng.Intn(40); n > 0; n-- {
			b.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		if rng.Intn(4) == 0 {
			b.WriteString("\xff\xc3")
		}
		return b.String()
	}
	for i := 0; i < 500; i++ {
		msg := Message{Operation: "op" + strconv.Itoa(i), Parts: map[string]string{}}
		if rng.Intn(2) == 0 {
			msg.Trace = text()
		}
		for p := rng.Intn(5); p > 0; p-- {
			msg.Parts["p"+strconv.Itoa(p)] = text()
		}
		got, err := Marshal(msg)
		want, wantErr := oracleMarshal(msg)
		if err != nil || wantErr != nil || !bytes.Equal(got, want) {
			t.Fatalf("Marshal(%+v) = %q, %v; oracle gives %q, %v", msg, got, err, want, wantErr)
		}
		checkAgainstOracle(t, want)
		if _, err := unmarshalBytes(want); err != nil {
			t.Fatalf("envelope %q does not parse: %v", want, err)
		}
	}
}

// TestTruncatedEnvelope cuts a valid 4096-row envelope at every 64th of
// its length and at every byte of its first and last 256: each prefix is
// an error and never a partly filled Message.
func TestTruncatedEnvelope(t *testing.T) {
	msg, env := bulkEnvelope(t)
	if got, err := unmarshalBytes(env); err != nil || !reflect.DeepEqual(got, msg) {
		t.Fatalf("whole envelope: %v", err)
	}
	cuts := map[int]bool{}
	for i := 0; i < 64; i++ {
		cuts[len(env)*i/64] = true
	}
	for i := 0; i < 256; i++ {
		cuts[i], cuts[len(env)-1-i] = true, true
	}
	for cut := range cuts {
		got, err := unmarshalBytes(env[:cut])
		if err == nil || !reflect.DeepEqual(got, Message{}) {
			t.Fatalf("prefix of %d/%d bytes: got operation %q with %d parts, err %v",
				cut, len(env), got.Operation, len(got.Parts), err)
		}
	}
}

// TestDeepNestingIsCheap bounds what the open-element stack costs: input
// that is nothing but start tags must not be amplified.
func TestDeepNestingIsCheap(t *testing.T) {
	const depth = 1 << 18
	doc := []byte(strings.Repeat("<a>", depth))
	per := allocated(t, func() {
		if _, err := unmarshalBytes(doc); err == nil {
			t.Fatal("unclosed document accepted")
		}
	})
	if per.bytes > uint64(8*len(doc)) {
		t.Fatalf("%d bytes allocated scanning %d bytes of start tags", per.bytes, len(doc))
	}
	closed := append(append([]byte("<Envelope><Body><op><p>"), doc...), strings.Repeat("</a>", depth)...)
	closed = append(closed, "v</p></op></Body></Envelope>"...)
	got, err := unmarshalBytes(closed)
	if err != nil || got.Parts["p"] != "v" {
		t.Fatalf("deeply nested part: %+v, %v", got, err)
	}
}
