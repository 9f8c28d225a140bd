package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"dollymp/internal/trace"
	"dollymp/internal/workload"
)

// FuzzSubmitBody posts arbitrary bytes to /v1/jobs on a stopped service
// with a two-slot queue (nothing drains it, so a third job overflows).
// The handler must never panic, and its reply has one of two shapes: 202
// with one ID per job the body decodes to, or a non-2xx error envelope
// with a code a submission can produce, whose accepted IDs plus rejected
// count account for every decoded job. Either way the service holds
// exactly the jobs it acknowledged. Seeds are the bodies http_test.go
// posts, plus one just over MaxBodyBytes.
func FuzzSubmitBody(f *testing.F) {
	one, err := json.Marshal(testJob(2, 3))
	if err != nil {
		f.Fatal(err)
	}
	var file bytes.Buffer
	if err := trace.Write(&file, []*workload.Job{testJob(1, 2), testJob(2, 2), testJob(1, 4)}); err != nil {
		f.Fatal(err)
	}
	f.Add(one)
	f.Add(file.Bytes())
	for _, malformed := range []string{
		"nope",
		`{"Name": "x", "Wat": 1}`,
		string(one) + "{}",
		`{"Name": "empty"}`,
		`{"version": 1, "jobs": [{"ID": 1}]}`,
		`{"version": 2, "jobs": []}`,
	} {
		f.Add([]byte(malformed))
	}
	f.Add(bytes.Repeat([]byte(" "), MaxBodyBytes+1))

	f.Fuzz(func(t *testing.T, body []byte) {
		s := newTestService(t, 2)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))

		// The handler's own decoder is the oracle for how many jobs the
		// body holds; what is fuzzed is everything around it.
		decoded := -1
		if len(body) <= MaxBodyBytes {
			if jobs, err := trace.DecodeSubmission(body); err == nil {
				decoded = len(jobs)
			}
		}
		var ids []workload.JobID
		if rec.Code == http.StatusAccepted {
			var ok struct {
				IDs []workload.JobID `json:"ids"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &ok); err != nil {
				t.Fatalf("202 body %q: %v", rec.Body, err)
			}
			if ids = ok.IDs; len(ids) != decoded {
				t.Fatalf("202 with %d IDs for a body of %d jobs", len(ids), decoded)
			}
		} else {
			var env ErrorResponse
			dec := json.NewDecoder(rec.Body)
			dec.DisallowUnknownFields()
			if err := dec.Decode(&env); err != nil || rec.Code/100 == 2 {
				t.Fatalf("status %d body %q is not an error envelope: %v", rec.Code, rec.Body, err)
			}
			wantStatus := map[string]int{CodeInvalidArgument: http.StatusBadRequest, CodeQueueFull: http.StatusTooManyRequests}
			if wantStatus[env.Error.Code] != rec.Code || env.Error.Message == "" {
				t.Fatalf("status %d with error %+v", rec.Code, env.Error)
			}
			if ids = env.IDs; decoded < 0 && (len(ids) != 0 || env.Rejected != 0) {
				t.Fatalf("undecodable body accepted %v, rejected %d", ids, env.Rejected)
			} else if decoded >= 0 && len(ids)+env.Rejected != decoded {
				t.Fatalf("%d accepted + %d rejected of %d decoded jobs", len(ids), env.Rejected, decoded)
			}
		}
		if c := s.Counts(); int(c.Submitted) != len(ids) {
			t.Fatalf("service holds %d jobs, acknowledged %d", c.Submitted, len(ids))
		}
	})
}
