package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"meda/internal/chip"
	"meda/internal/randx"
	"meda/internal/sched"
	"meda/internal/sim"
	"meda/pkg/api"
)

// mkRecord builds a CRC-valid record.
func mkRecord(seq int64, typ string, payload any) Record {
	data, err := json.Marshal(payload)
	if err != nil {
		panic(err)
	}
	return Record{Seq: seq, Type: typ, Data: data, CRC: recordCRC(seq, typ, data)}
}

// journalBytes serializes records the way journalWriter does.
func journalBytes(t *testing.T, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func testRecords(n int) []Record {
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, mkRecord(int64(i+1), recTenantCreate, tenantCreateRec{ID: "t"}))
	}
	return recs
}

func TestJournalRoundTrip(t *testing.T) {
	recs := testRecords(20)
	got, dropped, err := readJournal(bytes.NewReader(journalBytes(t, recs)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round-trip mismatch: got %d records", len(got))
	}
}

func TestJournalSkipsSnapshotCoveredRecords(t *testing.T) {
	recs := testRecords(10)
	got, _, err := readJournal(bytes.NewReader(journalBytes(t, recs)), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Seq != 8 {
		t.Fatalf("afterSeq=7: got %d records starting at %d, want 3 starting at 8", len(got), got[0].Seq)
	}
}

// isPrefix reports whether got is a prefix of want.
func isPrefix(got, want []Record) bool {
	if len(got) > len(want) {
		return false
	}
	if len(got) == 0 {
		return true
	}
	return reflect.DeepEqual(got, want[:len(got)])
}

// A journal truncated at ANY byte offset — the on-disk state after a crash
// mid-append — must read back as a valid prefix of what was written, with
// no error.
func TestJournalTruncationYieldsPrefix(t *testing.T) {
	recs := testRecords(8)
	full := journalBytes(t, recs)
	for cut := 0; cut <= len(full); cut++ {
		got, _, err := readJournal(bytes.NewReader(full[:cut]), 0)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if !isPrefix(got, recs) {
			t.Fatalf("cut at %d: %d records are not a prefix", cut, len(got))
		}
	}
}

// Flipping any single byte must never fabricate state: the CRC catches the
// damage and everything from the damaged record on is dropped.
func TestJournalByteFlipYieldsPrefix(t *testing.T) {
	recs := testRecords(8)
	full := journalBytes(t, recs)
	for off := 0; off < len(full); off++ {
		mut := append([]byte(nil), full...)
		mut[off] ^= 0x20
		got, _, err := readJournal(bytes.NewReader(mut), 0)
		if err != nil {
			t.Fatalf("flip at %d: %v", off, err)
		}
		if !isPrefix(got, recs) {
			t.Fatalf("flip at %d: result is not a prefix of the original records", off)
		}
	}
}

func TestJournalSequenceRegressionStops(t *testing.T) {
	recs := testRecords(5)
	recs[3] = mkRecord(2, recTenantCreate, tenantCreateRec{ID: "t"}) // CRC-valid but out of order
	got, dropped, err := readJournal(bytes.NewReader(journalBytes(t, recs)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || dropped != 2 {
		t.Fatalf("got %d records, %d dropped; want 3 and 2", len(got), dropped)
	}
}

// storeFixtureState drives a store through a representative record
// sequence: job 1 in the older format that journaled start and progress
// records, jobs 3 and 4 in the current one, where every end of a job that
// ran carries the chip state.
func storeFixtureState(t *testing.T, s *Store) {
	t.Helper()
	chipState := json.RawMessage(`{"version":1,"w":2,"h":2}`)
	wornState := json.RawMessage(`{"version":1,"w":2,"h":2,"worn":true}`)
	appends := []struct {
		typ     string
		payload payload
	}{
		{recTenantCreate, tenantCreateRec{ID: "acme"}},
		{recWebhookAdd, webhookAddRec{Tenant: "acme", Spec: api.WebhookSpec{URL: "http://x/hook"}}},
		{recChipCreate, chipCreateRec{Tenant: "acme", Spec: api.ChipSpec{ID: "c1", Seed: 7}, State: chipState}},
		{recJobSubmit, jobSubmitRec{ID: "j-000001", Tenant: "acme", Spec: api.JobSpec{Chip: "c1", Benchmark: "serial-dilution", Seed: 7}}},
		{recJobStart, jobStartRec{Job: "j-000001", Tenant: "acme", Chip: "c1", State: chipState}},
		{recJobProgress, jobProgressRec{Job: "j-000001", Progress: api.Progress{Cycle: 16, Digest: "00deadbeef00cafe"}}},
		{recJobDone, jobDoneRec{Job: "j-000001", Result: &api.Execution{Success: true, Cycles: 120}, State: chipState}},
		{recJobSubmit, jobSubmitRec{ID: "j-000002", Tenant: "acme", Spec: api.JobSpec{Chip: "c1", Benchmark: "cep", Seed: 8}}},
		{recJobCancel, jobCancelRec{Job: "j-000002"}},
		{recJobSubmit, jobSubmitRec{ID: "j-000003", Tenant: "acme", Spec: api.JobSpec{Chip: "c1", Benchmark: "cep", Seed: 9}}},
		{recJobDone, jobDoneRec{Job: "j-000003", Error: "route: no path", State: wornState}},
		{recJobSubmit, jobSubmitRec{ID: "j-000004", Tenant: "acme", Spec: api.JobSpec{Chip: "c1", Benchmark: "cep", Seed: 10}}},
		{recJobCancel, jobCancelRec{Job: "j-000004", State: chipState}},
	}
	for _, a := range appends {
		if typ := a.payload.recordType(); typ != a.typ {
			t.Fatalf("%T journals as %s, want %s", a.payload, typ, a.typ)
		}
		if err := s.Append(a.payload, false); err != nil {
			t.Fatalf("append %s: %v", a.typ, err)
		}
	}
}

// sameState fails the test unless the two states are equal, chip-state
// bytes included: json.Marshal would re-compact raw chip states and so
// hide a difference in their bytes.
func sameState(t *testing.T, got, want *State, what string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		t.Fatalf("%s:\n got %.400s\nwant %.400s", what, g, w)
	}
}

// cloneState deep-copies a state through its snapshot encoding.
func cloneState(t *testing.T, st *State) *State {
	t.Helper()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var c State
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return &c
}

// Replaying snapshot + journal must reconstruct exactly the in-memory
// mirror the writing process had — the store's core invariant.
func TestStoreReplayMatchesMirror(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	storeFixtureState(t, s)
	s.CloseAbrupt() // crash: no snapshot, journal only

	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseAbrupt()
	sameState(t, re.State(), s.State(), "replayed state differs from mirror")
	if re.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", re.Dropped())
	}
	// JobsDone must not double-count (job_done applied exactly once).
	if n := re.State().Tenants["acme"].Chips["c1"].JobsDone; n != 1 {
		t.Fatalf("jobs done = %d, want 1", n)
	}
}

// A failed append leaves the mirror as it was and fails the store: every
// later append and snapshot is refused, the snapshot on disk stays, and a
// reopened store holds what was journaled before the failure.
func TestStoreRefusesAfterFailedAppend(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	storeFixtureState(t, s)
	want := cloneState(t, s.State())
	snap, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	s.CloseAbrupt() // every write to the journal fails from here on
	if err := s.Append(tenantCreateRec{ID: "late"}, true); err == nil {
		t.Fatal("an append to a closed journal succeeded")
	}
	sameState(t, s.State(), want, "the failed append changed the mirror")
	if err := s.Append(tenantCreateRec{ID: "later"}, false); err == nil {
		t.Fatal("a failed store took another append")
	}
	if err := s.Snapshot(); err == nil {
		t.Fatal("a failed store took a snapshot")
	}
	if err := s.Close(); err == nil {
		t.Fatal("closing a failed store reported no error")
	}
	if got, err := os.ReadFile(filepath.Join(dir, snapshotName)); err != nil || !bytes.Equal(got, snap) {
		t.Fatalf("the failed store rewrote its snapshot (err %v)", err)
	}

	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseAbrupt()
	sameState(t, re.State(), want, "reopened state differs from the journaled one")
	if err := re.Append(tenantCreateRec{ID: "late"}, false); err != nil {
		t.Fatalf("the reopened store refused an append: %v", err)
	}
}

// A crash-damaged journal tail (garbage after the last good record) is
// dropped cleanly and counted; the good prefix survives.
func TestStoreCorruptTailDropped(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	storeFixtureState(t, s)
	want := s.State()
	s.CloseAbrupt()

	jPath := filepath.Join(dir, journalName)
	f, err := os.OpenFile(jPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{torn rec\n{\"seq\":99,\"type\":\"tenant_create\",\"crc\":1}\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseAbrupt()
	if re.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", re.Dropped())
	}
	sameState(t, re.State(), want, "state after tail damage differs from the pre-damage mirror")
}

// The snapshot-then-truncate crash window: if the snapshot lands but the
// truncate never happens, replaying the stale journal over the snapshot
// must be a no-op (every record's seq is covered by the snapshot).
func TestStoreSnapshotTruncateCrashWindow(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	storeFixtureState(t, s)
	want := s.State()
	jPath := filepath.Join(dir, journalName)
	stale, err := os.ReadFile(jPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Undo the truncate, as if the crash hit between rename and truncate.
	if err := os.WriteFile(jPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	s.CloseAbrupt()

	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseAbrupt()
	sameState(t, re.State(), want, "stale-journal replay changed state (double-applied records)")
	if n := re.State().Tenants["acme"].Chips["c1"].JobsDone; n != 1 {
		t.Fatalf("jobs done = %d after stale replay, want 1", n)
	}
}

// A leftover snapshot temp file from a crashed snapshot attempt is ignored;
// the journal still carries those records.
func TestStoreIgnoresSnapshotTemp(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	storeFixtureState(t, s)
	want := s.State()
	s.CloseAbrupt()
	if err := os.WriteFile(filepath.Join(dir, snapshotName+".tmp"), []byte("{half a snapsho"), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseAbrupt()
	sameState(t, re.State(), want, "temp snapshot file perturbed recovery")
}

// Close persists via snapshot; a clean reopen needs no journal at all.
func TestStoreCleanCloseReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	storeFixtureState(t, s)
	want := s.State()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, re.State(), want, "clean close/reopen changed state")
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalLineMatchesMarshal: the journal writes each line by hand,
// and the line must be the bytes json.Marshal gives for the Record, for
// every record type, with real chip states (fresh and worn by a job) and
// a real job result. Each payload must also decode back to what was
// appended, so that replay and Append fold the same value into the mirror.
func TestJournalLineMatchesMarshal(t *testing.T) {
	spec := api.ChipSpec{ID: "c1", Seed: 7}
	c, err := chip.New(chipConfig(spec), randx.New(spec.Seed).Split("chip"))
	if err != nil {
		t.Fatal(err)
	}
	saveState := func() json.RawMessage {
		var buf bytes.Buffer
		if err := c.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fresh := saveState()
	job := api.JobSpec{Chip: "c1", Benchmark: "serial-dilution", Seed: 3}
	plan, err := compilePlan(job, c.W(), c.H())
	if err != nil {
		t.Fatal(err)
	}
	exec, err := sim.NewRunner(sim.DefaultConfig(), c, sched.NewAdaptive(), randx.New(job.Seed).Split("sim")).Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	result := convertExec(exec)
	worn := saveState()
	if bytes.Equal(fresh, worn) {
		t.Fatal("the job left the chip state unchanged")
	}

	// Strings JSON escapes (HTML characters, U+2028, a quote) must come
	// out as json.Marshal escapes them.
	odd := "a<b>&\"c\u2028d"
	payloads := []payload{
		tenantCreateRec{ID: "acme"},
		tenantCreateRec{ID: odd},
		webhookAddRec{Tenant: "acme", Spec: api.WebhookSpec{URL: "http://x/hook?a=1&b=<2>"}},
		chipCreateRec{Tenant: "acme", Spec: spec, State: fresh},
		chipHealthRec{Tenant: "acme", Chip: "c1", State: worn},
		jobSubmitRec{ID: "j-000001", Tenant: "acme", Spec: job},
		jobStartRec{Job: "j-000001", Tenant: "acme", Chip: "c1", State: fresh},
		jobProgressRec{Job: "j-000001", Progress: api.Progress{Cycle: 16, JobsCompleted: 2, Droplets: 3, Digest: "00deadbeef00cafe"}},
		jobDoneRec{Job: "j-000001", Result: &result, State: worn},
		jobDoneRec{Job: "j-000002", Error: odd, State: fresh},
		jobCancelRec{Job: "j-000003"},
		jobCancelRec{Job: "j-000004", State: worn},
	}
	line := func(rec Record) []byte {
		t.Helper()
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		return append(want, '\n')
	}

	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	covered := map[string]bool{}
	for i, p := range payloads {
		if err := s.Append(p, false); err != nil {
			t.Fatalf("append %T: %v", p, err)
		}
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		typ := p.recordType()
		seq := int64(i + 1)
		rec := Record{Seq: seq, Type: typ, Data: data, CRC: recordCRC(seq, typ, data)}
		want = append(want, line(rec)...)
		covered[typ] = true

		back, err := decodePayload(rec)
		if err != nil {
			t.Fatalf("decoding %s: %v", typ, err)
		}
		if back.recordType() != typ {
			t.Fatalf("a %s record decodes to %T", typ, back)
		}
		if again, err := json.Marshal(back); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("%s payload does not survive decoding: %s, want %s (err %v)", typ, again, data, err)
		}
	}
	for typ := range decoders {
		if !covered[typ] {
			t.Errorf("no %s record in the test", typ)
		}
	}
	s.CloseAbrupt()
	got, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("journal bytes differ from json.Marshal of its records:\n got %.300s\nwant %.300s", got, want)
	}

	// Records the store never writes: no payload, a negative sequence; and
	// a string that is not UTF-8, which json.Marshal writes as U+FFFD (the
	// store's strings all come from JSON or from the service itself, so
	// they are UTF-8 and decode back unchanged).
	invalid, err := json.Marshal(tenantCreateRec{ID: "x\xff"})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{
		{Seq: 5, Type: recJobCancel, CRC: 7},
		{Seq: -9, Type: recTenantCreate, Data: json.RawMessage(`{"id":"x"}`), CRC: 1 << 31},
		{Seq: 3, Type: recTenantCreate, Data: invalid, CRC: 2},
	} {
		got, err := appendRecord(nil, rec)
		if err != nil || !bytes.Equal(got, line(rec)) {
			t.Fatalf("appendRecord(%+v) = %s, %v; want %s", rec, got, err, line(rec))
		}
	}
	if _, err := appendRecord(nil, Record{Type: `a"b`}); err == nil {
		t.Fatal("a record type JSON must escape was written by hand")
	}
}
