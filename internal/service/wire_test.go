package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ingest"
	"repro/internal/taskgraph"
)

// TestScheduleRequestFieldsReachIngest ties the wire form to the ingest
// decoder: every ScheduleRequest field, sent alone by a json.Marshal
// client, must arrive with its value in the ingest.Request field of the
// same name — on the scanned path with the exact key, and on the
// encoding/json path with an upper-case key, which the scanner leaves to
// encoding/json. A field added to the wire form but missing from the
// scanner, the fallback or ingest.Request fails here.
func TestScheduleRequestFieldsReachIngest(t *testing.T) {
	g := taskgraph.New("g")
	g.AddTask("a", 1)
	rt := reflect.TypeFor[ScheduleRequest]()
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if f.Name == "Graph" {
			continue
		}
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		var sr ScheduleRequest
		sr.Graph, sr.Topo = g, "ring:4"
		v := reflect.ValueOf(&sr).Elem().Field(i)
		setNonZero(v)
		want, err := json.Marshal(v.Interface())
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(sr)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{key, strings.ToUpper(key)} {
			b := bytes.Replace(body, []byte(`"`+key+`":`), []byte(`"`+k+`":`), 1)
			r := ingest.Get()
			err := r.DecodeBody(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(b)))
			if err != nil {
				t.Fatalf("%s: %v", b, err)
			}
			got := reflect.ValueOf(r).Elem().FieldByName(f.Name)
			if !got.IsValid() {
				t.Fatalf("ingest.Request has no field %s", f.Name)
			}
			gotJSON, err := json.Marshal(got.Interface())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON, want) {
				t.Errorf("key %q: ingest decoded %s = %s, want %s", k, f.Name, gotJSON, want)
			}
			r.Release()
		}
	}
}

// setNonZero sets v, and every field or element it points to, to a value
// other than its zero value.
func setNonZero(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		setNonZero(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			setNonZero(v.Field(i))
		}
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Float64:
		v.SetFloat(0.5)
	default:
		panic("setNonZero: unhandled kind " + v.Kind().String())
	}
}
