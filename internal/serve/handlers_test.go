package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"meda/pkg/api"
)

// decodeBody runs body through readJSON into a fresh T and returns the
// decoded value, whether readJSON accepted it, and the recorded response.
func decodeBody[T any](body []byte) (*T, bool, *httptest.ResponseRecorder) {
	v := new(T)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	return v, readJSON(rec, req, v), rec
}

// TestReadJSONTrailingData: a body is exactly one JSON value. Trailing
// whitespace (json.Encoder ends every value with a newline) is accepted;
// anything else after the value, including a second value, is a 400.
func TestReadJSONTrailingData(t *testing.T) {
	cases := []struct {
		name string
		body string
		ok   bool
	}{
		{"single value", `{"id":"a"}`, true},
		{"trailing newline", "{\"id\":\"a\"}\n", true},
		{"trailing whitespace", "{\"id\":\"a\"} \t\r\n ", true},
		{"trailing garbage", `{"id":"a"} garbage`, false},
		{"second value", `{"id":"a"}{"id":"b"}`, false},
		{"stray closing brace", `{"id":"a"}}`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, ok, rec := decodeBody[api.TenantSpec]([]byte(tc.body))
			if ok != tc.ok {
				t.Fatalf("readJSON(%q) = %v, want %v (response %d %s)", tc.body, ok, tc.ok, rec.Code, rec.Body)
			}
			if ok {
				if spec.ID != "a" {
					t.Errorf("decoded id %q, want a", spec.ID)
				}
				return
			}
			checkRejected(t, rec)
		})
	}
}

// checkRejected asserts a 400 whose body is the api.Error envelope.
func checkRejected(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("rejected body answered %d, want 400", rec.Code)
	}
	var e api.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Message == "" {
		t.Fatalf("rejected body's response %q is not an api.Error envelope (%v)", rec.Body, err)
	}
}

// fuzzBody checks one request body type: a rejected body gets the 400
// envelope; an accepted one is exactly one JSON value whose decoded form
// survives a Marshal → decode → Marshal round trip byte for byte, and is
// handed to the same validation the handlers run.
func fuzzBody[T any](t *testing.T, body []byte, validate func(*T)) {
	v, ok, rec := decodeBody[T](body)
	if !ok {
		checkRejected(t, rec)
		return
	}
	if !json.Valid(body) {
		t.Fatalf("accepted %q, which is not exactly one JSON value", body)
	}
	validate(v)
	first, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("accepted %q but cannot marshal %+v: %v", body, v, err)
	}
	again, ok, rec := decodeBody[T](first)
	if !ok {
		t.Fatalf("re-decoding %s failed: %d %s", first, rec.Code, rec.Body)
	}
	second, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("round trip changed the value:\n first %s\nsecond %s", first, second)
	}
}

// FuzzReadJSON feeds arbitrary bytes through readJSON into every request
// body type the handlers decode. The seed corpus holds one valid body per
// type, an unknown field, a wrong type, an empty body and trailing garbage.
func FuzzReadJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzBody(t, body, func(s *api.TenantSpec) { _ = api.ValidateID("tenant", s.ID) })
		fuzzBody(t, body, func(s *api.ChipSpec) { _ = api.ValidateID("chip", s.ID) })
		fuzzBody(t, body, func(s *api.JobSpec) { _ = s.Validate() })
		fuzzBody(t, body, func(*api.WebhookSpec) {})
	})
}
