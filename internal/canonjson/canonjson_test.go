package canonjson

import (
	"encoding/json"
	"testing"
)

// walk reads any value in the subset, taking every key, and reports
// whether the whole input was one such value.
func walk(data []byte) bool {
	r := NewReader(data)
	value(&r)
	return r.End()
}

func value(r *Reader) {
	switch r.peek() {
	case '{':
		r.Begin('{')
		for r.Next('}') {
			r.Key()
			value(r)
		}
	case '[':
		r.Begin('[')
		for r.Next(']') {
			value(r)
		}
	case '"':
		r.Str()
	case 't', 'f':
		r.Bool()
	case 'n':
		if !r.Null() {
			r.Fail()
		}
	default:
		r.Float()
	}
}

// TestReaderGrammar: the reader takes JSON that encoding/json writes and
// refuses what is not JSON, and escaped or non-ASCII strings.
func TestReaderGrammar(t *testing.T) {
	for _, s := range []string{
		`{}`, `[]`, `{"a":1,"b":[true,false,null],"c":{"d":"e f"}}`, " \t\n\r{ \"a\" : [ 1 , -0.5e+3 ] } \n",
		`0`, `-0`, `1E3`, `1.25e-7`, `"x"`, `[[],{}]`,
	} {
		if !walk([]byte(s)) {
			t.Errorf("reader refused %q", s)
		}
	}
	for _, s := range []string{
		``, `{`, `}`, `{"a":1,}`, `[1,]`, `{,}`, `[,1]`, `[1 2]`, `{"a" 1}`, `{"a":1}}`, `{"a":1}x`, `{1:2}`,
		`01`, `1.`, `.5`, `+1`, `1e`, `1e+`, `-`, `--1`, `0x10`, `NaN`, `tru`, `nul`, `truex`,
		`"a\"b"`, `"a\u0041"`, "\"\xc3\xa9\"", "\"a\tb\"", `"open`,
	} {
		if walk([]byte(s)) {
			t.Errorf("reader took %q", s)
		}
	}
}

// TestReaderNumbers: each typed read takes exactly the literals
// encoding/json decodes into a field of that type.
func TestReaderNumbers(t *testing.T) {
	for _, s := range []string{
		`0`, `-0`, `7`, `-7`, `1.5`, `1e3`, `1E3`, `-1e-3`, `18446744073709551615`, `18446744073709551616`,
		`9223372036854775807`, `9223372036854775808`, `-9223372036854775808`, `-9223372036854775809`,
		`1e400`, `4.9e-325`, `123456789012345678901234567890`,
	} {
		var u uint64
		var i int64
		var f float64
		for _, c := range []struct {
			read func(*Reader)
			v    any
		}{
			{func(r *Reader) { r.Uint() }, &u},
			{func(r *Reader) { r.Int64() }, &i},
			{func(r *Reader) { r.Float() }, &f},
		} {
			r := NewReader([]byte(s))
			c.read(&r)
			if got, want := r.End(), json.Unmarshal([]byte(s), c.v) == nil; got != want {
				t.Errorf("%s into %T: reader took it %v, encoding/json %v", s, c.v, got, want)
			}
		}
	}
}

// TestReaderObject: Object returns exactly the next object's bytes.
func TestReaderObject(t *testing.T) {
	r := NewReader([]byte(`{"a": {"b":[1,{"c":"}"}]} , "d":2}`))
	r.Begin('{')
	r.Next('}')
	r.Key()
	if got := r.Object(); string(got) != `{"b":[1,{"c":"}"}]}` {
		t.Errorf("Object = %s", got)
	}
	if !r.Next('}') || string(r.Key()) != "d" || r.Int() != 2 || r.Next('}') || !r.End() {
		t.Error("reader lost its place after Object")
	}
}

// FuzzReader: whatever the reader takes, encoding/json takes too, so a
// value decoded on the canonical path always has an encoding/json twin.
func FuzzReader(f *testing.F) {
	for _, s := range []string{`{"a":[1,-2.5e3,true,null,"x"],"b":{}}`, `[{"a":"b"},[]]`, `{"a":1,}`, `"é"`, ` 0 `} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if walk(data) && !json.Valid(data) {
			t.Fatalf("reader took invalid JSON %q", data)
		}
	})
}
