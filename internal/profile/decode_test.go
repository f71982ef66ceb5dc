package profile

import (
	"bytes"
	"strings"
	"testing"
)

// cleanLog is buildTestProfile's encoding with one method entry added.
func cleanLog(t testing.TB) string {
	t.Helper()
	p := buildTestProfile()
	p.Method("c:view", "Show").Calls = 1
	var b bytes.Buffer
	if err := p.Encode(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// legacyPair is the summary of instance pair 1 -> 2 in legacyMembers.
const legacyPair = `{"src":1,"dst":2,"calls":1,"in":{"8":1},"out":{"5":1},"exactIn":128,"exactOut":16}`

// legacyMembers are the per-instance members a log of buildTestProfile's
// run held while a profile kept per-instance detail, as that format wrote
// them: a record per instantiation and a summary per instance pair.
const legacyMembers = `,"instances":[` +
	`{"ID":1,"Class":"Reader","Classification":"c:reader","CreatorClassification":"\u003cmain\u003e","Order":1,"Path":null},` +
	`{"ID":2,"Class":"View","Classification":"c:view","CreatorClassification":"c:reader","Order":2,"Path":["Reader"]},` +
	`{"ID":3,"Class":"View","Classification":"c:view","CreatorClassification":"c:reader","Order":3,"Path":["Reader"]}],` +
	`"instEdges":[{"src":0,"dst":1,"calls":1,"in":{"7":1},"out":{"13":1},"exactIn":64,"exactOut":4096},` +
	legacyPair + `,{"src":1,"dst":3,"calls":1,"in":{"8":1},"out":{"5":1},"exactIn":128,"exactOut":16}]`

// legacyLog is log in the older format: the same members, then
// legacyMembers.
func legacyLog(t testing.TB, log string) string {
	t.Helper()
	body, ok := strings.CutSuffix(log, "}\n")
	if !ok {
		t.Fatalf("a log does not end in }: %q", log)
	}
	return body + legacyMembers + "}\n"
}

// TestDecodeReadsOldLogs: a log in the format that held per-instance
// detail decodes to the profile of its other members, which encodes to
// the current format's bytes.
func TestDecodeReadsOldLogs(t *testing.T) {
	t.Parallel()
	clean := cleanLog(t)
	if strings.Contains(clean, `"instances"`) || strings.Contains(clean, `"instEdges"`) {
		t.Fatalf("a profile encoded per-instance detail:\n%s", clean)
	}
	p, err := Decode(strings.NewReader(legacyLog(t, clean)))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := p.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != clean {
		t.Errorf("the old log decoded to\n%s\nthe current log is\n%s", b.String(), clean)
	}
}

// TestDecodeRejectsImpossibleLogs: a log whose numbers Record and Merge
// could not have produced, or that lists an entry twice, is an error, not
// a profile with an edge that prices at zero or below. A log in the older
// format is held to what that format's Decode held it to, except that an
// instance pair may be listed twice: its summary is dropped.
func TestDecodeRejectsImpossibleLogs(t *testing.T) {
	t.Parallel()
	clean := cleanLog(t)
	old := legacyLog(t, clean)
	for _, log := range []string{clean, old, strings.Replace(old, legacyPair, legacyPair+","+legacyPair, 1)} {
		if _, err := Decode(strings.NewReader(log)); err != nil {
			t.Fatalf("clean log: %v\n%s", err, log)
		}
	}
	edge := `{"src":"c:reader","dst":"c:view","calls":1,"in":{"8":1},"out":{"5":1},"exactIn":128,"exactOut":16}`
	if !strings.Contains(clean, edge) {
		t.Fatalf("the clean log has no %s:\n%s", edge, clean)
	}
	for _, c := range []struct{ name, old, new string }{
		{"bucket past the last", edge, strings.Replace(edge, `"in":{"8":1}`, `"in":{"33":1}`, 1)},
		{"negative bucket", edge, strings.Replace(edge, `"out":{"5":1}`, `"out":{"-1":1}`, 1)},
		{"negative bucket count", edge, strings.Replace(edge, `"calls":1,"in":{"8":1},"out":{"5":1}`,
			`"calls":0,"in":{"8":1,"9":-1},"out":{"5":0}`, 1)},
		{"negative calls", edge, strings.Replace(edge, `"calls":1,"in":{"8":1},"out":{"5":1}`,
			`"calls":-1,"in":{"8":-1},"out":{"5":-1}`, 1)},
		{"negative request bytes", edge, strings.Replace(edge, `"exactIn":128`, `"exactIn":-128`, 1)},
		{"negative reply bytes", edge, strings.Replace(edge, `"exactOut":16`, `"exactOut":-16`, 1)},
		{"calls above the requests", edge, strings.Replace(edge, `"calls":1,"in":{"8":1},"out":{"5":1}`,
			`"calls":2,"in":{"8":1},"out":{"5":2}`, 1)},
		{"calls above the replies", edge, strings.Replace(edge, `"calls":1,"in":{"8":1},"out":{"5":1}`,
			`"calls":2,"in":{"8":2},"out":{"5":1}`, 1)},
		{"histogram total overflows", edge, strings.Replace(edge, `"calls":1,"in":{"8":1}`,
			`"calls":1,"in":{"8":9223372036854775807,"9":9223372036854775807,"10":3}`, 1)},
		{"the reported log", edge, strings.Replace(edge, `"in":{"8":1},"out":{"5":1}`, `"in":{"70":2},"out":{"3":-2}`, 1)},
		{"duplicate edge", edge, edge + "," + edge},
		{"negative instance-edge bytes", legacyPair, strings.Replace(legacyPair, `"exactIn":128`, `"exactIn":-1`, 1)},
		{"instance-edge bucket past the last", legacyPair, strings.Replace(legacyPair, `"out":{"5":1}`, `"out":{"40":1}`, 1)},
		{"negative instance id", `"ID":2,"Class":"View"`, `"ID":-2,"Class":"View"`},
		{"instance order not a number", `"Order":3`, `"Order":"3"`},
		{"duplicate classification", `"classifications":[`, `"classifications":[{"ID":"c:view","Class":"View","Instances":1,"Path":null},`},
		{"negative instances", `"ID":"c:view","Class":"View","Instances":2`, `"ID":"c:view","Class":"View","Instances":-2`},
		{"duplicate method", `"methods":[`, `"methods":[{"classification":"c:view","method":"Show","calls":1},`},
		{"negative method calls", `"method":"Show","calls":1`, `"method":"Show","calls":-1`},
		{"negative method writes", `"method":"Show","calls":1`, `"method":"Show","calls":1,"writes":-3`},
	} {
		applied := false
		for _, base := range []string{clean, old} {
			if !strings.Contains(base, c.old) {
				continue
			}
			applied = true
			log := strings.Replace(base, c.old, c.new, 1)
			if p, err := Decode(strings.NewReader(log)); err == nil {
				t.Errorf("%s: decoded %s", c.name, log)
			} else if p != nil {
				t.Errorf("%s: error %v with a profile", c.name, err)
			}
		}
		if !applied {
			t.Fatalf("%s: the edit did not apply", c.name)
		}
	}
}

// FuzzDecode: Decode never panics, and a log it accepts re-encodes to bytes
// that decode and encode to the same bytes again. Run with `go test -fuzz
// FuzzDecode ./internal/profile` to explore beyond the seed corpus.
func FuzzDecode(f *testing.F) {
	clean := cleanLog(f)
	f.Add(clean)
	f.Add(strings.Replace(clean, `"in":{"8":1}`, `"in":{"70":2}`, 1))
	// An edge of three buckets each way: more than the two carved slots.
	f.Add(strings.Replace(clean, `"calls":1,"in":{"8":1},"out":{"5":1}`,
		`"calls":3,"in":{"8":1,"10":1,"2":1},"out":{"0":1,"5":1,"31":1}`, 1))
	f.Add(`{"app":"a","classifier":"ifcb","scenarios":[],"edges":[{"src":"x","dst":"y","calls":0,"in":{"0":0},"exactIn":0,"exactOut":0}],"classifications":null}`)
	f.Add(`{}`)
	f.Add(`null`)
	f.Add(`not json`)
	f.Add(legacyLog(f, clean))
	f.Fuzz(func(t *testing.T, log string) {
		p, err := Decode(strings.NewReader(log))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := p.Encode(&once); err != nil {
			t.Fatalf("accepted log does not encode: %v", err)
		}
		q, err := Decode(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded log does not decode: %v\n%s", err, once.String())
		}
		if err := q.Encode(&twice); err != nil {
			t.Fatal(err)
		}
		if once.String() != twice.String() {
			t.Fatalf("re-encoding is not stable:\n%s\n%s", once.String(), twice.String())
		}
	})
}
