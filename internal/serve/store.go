// Durable fleet state: a JSON snapshot plus the journal of journal.go.
//
// The Store keeps an in-memory mirror of the persisted state, the fleet's
// one copy of its durable facts. Append folds a record into it only after
// the record's journal line is written and synced, so the mirror is what a
// restart would rebuild by replaying the journal over the last snapshot;
// once an append fails, the store refuses every later Append and Snapshot
// until it is reopened, so no snapshot publishes what the journal lacks.
// Snapshotting marshals the mirror through the classic write-temp / fsync /
// rename dance and then truncates the journal, so a crash at any instant
// leaves either the old snapshot with the full journal or the new snapshot
// with an empty (or stale, replay-skipped) journal.
//
// Chip states and the shared strategy library are carried as raw JSON
// produced by their owning packages (chip.SaveState, sched.Library.Save);
// the store never interprets them. The fleet hands it chip states in the
// compact form replay decodes, so the mirror's bytes do not change across
// a restart.
//
// Every record takes one path into the mirror. Append encodes the typed
// payload once, for the journal line, and folds the payload itself into
// the mirror with State.apply; replay decodes each journal record back
// into the same typed payload (decodePayload) and calls the same apply.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"meda/pkg/api"
)

// Journal record types.
const (
	recTenantCreate = "tenant_create"
	recWebhookAdd   = "webhook_add"
	recChipCreate   = "chip_create"
	recChipHealth   = "chip_health"
	recJobSubmit    = "job_submit"
	recJobDone      = "job_done"
	recJobCancel    = "job_cancel"
	// Journals from before the end records carried the chip state also
	// hold these two. Replay still reads them; the fleet writes neither.
	recJobStart    = "job_start"
	recJobProgress = "job_progress"
)

// payload is the typed payload of one journal record; recordType names
// the record type it is journaled under.
type payload interface{ recordType() string }

// Journal record payloads.
type tenantCreateRec struct {
	ID string `json:"id"`
}

type webhookAddRec struct {
	Tenant string          `json:"tenant"`
	Spec   api.WebhookSpec `json:"spec"`
}

type chipCreateRec struct {
	Tenant string          `json:"tenant"`
	Spec   api.ChipSpec    `json:"spec"`
	State  json.RawMessage `json:"state"`
}

type chipHealthRec struct {
	Tenant string          `json:"tenant"`
	Chip   string          `json:"chip"`
	State  json.RawMessage `json:"state"`
}

type jobSubmitRec struct {
	ID     string      `json:"id"`
	Tenant string      `json:"tenant"`
	Spec   api.JobSpec `json:"spec"`
}

// jobStartRec pinned the chip state a job started from. Replay still pins
// it, since an older journal's end records may lack the state.
type jobStartRec struct {
	Job    string          `json:"job"`
	Tenant string          `json:"tenant"`
	Chip   string          `json:"chip"`
	State  json.RawMessage `json:"state"`
}

// jobProgressRec was an older journal's per-checkpoint progress beacon.
// Replay ignores it.
type jobProgressRec struct {
	Job      string       `json:"job"`
	Progress api.Progress `json:"progress"`
}

// jobDoneRec and jobCancelRec end a job. State is the chip state after
// it, the state the chip's next job starts from; only a job canceled
// before it ran ends without one. Execution is a deterministic function
// of (chip state, job spec, chip spec), so a job with no end record
// re-executes on restart from the chip record and lands on byte-identical
// results.
type jobDoneRec struct {
	Job string `json:"job"`
	// Result and Error are mutually exclusive: a Result (even an aborted
	// one) means the execution ran to a verdict, an Error means it did not.
	Result *api.Execution  `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	State  json.RawMessage `json:"state,omitempty"`
}

type jobCancelRec struct {
	Job   string          `json:"job"`
	State json.RawMessage `json:"state,omitempty"`
}

func (tenantCreateRec) recordType() string { return recTenantCreate }
func (webhookAddRec) recordType() string   { return recWebhookAdd }
func (chipCreateRec) recordType() string   { return recChipCreate }
func (chipHealthRec) recordType() string   { return recChipHealth }
func (jobSubmitRec) recordType() string    { return recJobSubmit }
func (jobStartRec) recordType() string     { return recJobStart }
func (jobProgressRec) recordType() string  { return recJobProgress }
func (jobDoneRec) recordType() string      { return recJobDone }
func (jobCancelRec) recordType() string    { return recJobCancel }

// decoders maps each record type to the decoder of its payload.
var decoders = map[string]func([]byte) (payload, error){
	recTenantCreate: decode[tenantCreateRec],
	recWebhookAdd:   decode[webhookAddRec],
	recChipCreate:   decode[chipCreateRec],
	recChipHealth:   decode[chipHealthRec],
	recJobSubmit:    decode[jobSubmitRec],
	recJobStart:     decode[jobStartRec],
	recJobProgress:  decode[jobProgressRec],
	recJobDone:      decode[jobDoneRec],
	recJobCancel:    decode[jobCancelRec],
}

func decode[T payload](data []byte) (payload, error) {
	var r T
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return r, nil
}

// decodePayload reads a journal record back into the typed payload it was
// appended with. Unknown record types are an error — they mean the journal
// was written by a newer build.
func decodePayload(rec Record) (payload, error) {
	dec := decoders[rec.Type]
	if dec == nil {
		return nil, fmt.Errorf("serve: journal record %d (%s): unknown record type", rec.Seq, rec.Type)
	}
	p, err := dec(rec.Data)
	if err != nil {
		return nil, fmt.Errorf("serve: journal record %d (%s): %w", rec.Seq, rec.Type, err)
	}
	return p, nil
}

// PersistedChip is one chip's durable state.
type PersistedChip struct {
	Spec api.ChipSpec `json:"spec"`
	// State is the chip.SaveState JSON, compact and without its trailing
	// newline, as of chip creation, the last job end or health upload: the
	// base state the next job starts from.
	State json.RawMessage `json:"state"`
	// JobsDone counts the chip's jobs that ended done, not failed.
	JobsDone int `json:"jobs_done"`
}

// PersistedTenant is one tenant's durable state.
type PersistedTenant struct {
	ID       string                    `json:"id"`
	Webhooks []api.WebhookSpec         `json:"webhooks,omitempty"`
	Chips    map[string]*PersistedChip `json:"chips"`
}

// PersistedJob is one job's durable state.
type PersistedJob struct {
	ID     string         `json:"id"`
	Tenant string         `json:"tenant"`
	Spec   api.JobSpec    `json:"spec"`
	State  api.JobState   `json:"state"`
	Result *api.Execution `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// State is the full durable fleet state: the snapshot schema and the
// journal-replay target.
type State struct {
	Version int                         `json:"version"`
	Seq     int64                       `json:"seq"`
	JobSeq  int                         `json:"job_seq"`
	Tenants map[string]*PersistedTenant `json:"tenants"`
	Jobs    map[string]*PersistedJob    `json:"jobs"`
	// JobOrder preserves submission order so a restart re-queues unfinished
	// jobs in the order they were accepted.
	JobOrder []string `json:"job_order"`
	// Library is the shared strategy library (sched.Library.Save JSON). It
	// is refreshed at snapshot time only: strategies synthesized since the
	// last snapshot are recomputed deterministically on demand, so losing
	// them to a crash costs time, never correctness.
	Library json.RawMessage `json:"library,omitempty"`
}

func newState() *State {
	return &State{
		Version: 1,
		Tenants: make(map[string]*PersistedTenant),
		Jobs:    make(map[string]*PersistedJob),
	}
}

// apply folds one record's payload into the state: the one path both
// Store.Append and journal replay take.
func (s *State) apply(p payload) {
	switch r := p.(type) {
	case tenantCreateRec:
		if _, ok := s.Tenants[r.ID]; !ok {
			s.Tenants[r.ID] = &PersistedTenant{ID: r.ID, Chips: make(map[string]*PersistedChip)}
		}
	case webhookAddRec:
		if t := s.Tenants[r.Tenant]; t != nil {
			t.Webhooks = append(t.Webhooks, r.Spec)
		}
	case chipCreateRec:
		if t := s.Tenants[r.Tenant]; t != nil {
			t.Chips[r.Spec.ID] = &PersistedChip{Spec: r.Spec, State: r.State}
		}
	case chipHealthRec:
		if t := s.Tenants[r.Tenant]; t != nil {
			if c := t.Chips[r.Chip]; c != nil {
				c.State = r.State
			}
		}
	case jobSubmitRec:
		s.JobSeq++
		s.Jobs[r.ID] = &PersistedJob{ID: r.ID, Tenant: r.Tenant, Spec: r.Spec, State: api.JobQueued}
		s.JobOrder = append(s.JobOrder, r.ID)
	case jobStartRec:
		if j := s.Jobs[r.Job]; j != nil {
			j.State = api.JobRunning
		}
		if c := s.chip(r.Tenant, r.Chip); c != nil && len(r.State) > 0 {
			c.State = r.State
		}
	case jobDoneRec:
		j := s.Jobs[r.Job]
		if j == nil {
			return
		}
		c := s.chip(j.Tenant, j.Spec.Chip)
		if r.Error != "" {
			j.State = api.JobFailed
			j.Error = r.Error
		} else {
			j.State = api.JobDone
			j.Result = r.Result
			if c != nil {
				c.JobsDone++
			}
		}
		if c != nil && len(r.State) > 0 {
			c.State = r.State
		}
	case jobCancelRec:
		j := s.Jobs[r.Job]
		if j == nil || j.State.Terminal() {
			return
		}
		j.State = api.JobCanceled
		if c := s.chip(j.Tenant, j.Spec.Chip); c != nil && len(r.State) > 0 {
			c.State = r.State
		}
	}
}

// chip returns a tenant's chip record, or nil when there is none.
func (s *State) chip(tenant, chip string) *PersistedChip {
	if t := s.Tenants[tenant]; t != nil {
		return t.Chips[chip]
	}
	return nil
}

// Store owns the data directory: snapshot.json plus journal.jsonl. All
// methods are safe for concurrent use.
type Store struct {
	dir string
	// mu guards state, jw, and the files: sequence assignment, the mirror
	// update, and the journal append form one atomic step.
	mu      sync.Mutex
	state   *State
	jw      *journalWriter
	dropped int   // crash-damaged journal tail records dropped at open
	failed  error // set by a failed append; then every write returns it
}

const (
	snapshotName = "snapshot.json"
	journalName  = "journal.jsonl"
)

// OpenStore opens (or initializes) a data directory, replays
// snapshot + journal into the in-memory mirror, and compacts: it writes a
// fresh snapshot of the recovered state and truncates the journal, which
// both bounds journal growth and amputates any crash-damaged tail before
// new records are appended after it.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating data dir: %w", err)
	}
	s := &Store{dir: dir, state: newState()}

	// Snapshot, if one landed (a leftover .tmp from a crashed snapshot
	// attempt is ignored; the journal still holds those records).
	snapPath := filepath.Join(dir, snapshotName)
	if raw, err := os.ReadFile(snapPath); err == nil {
		var snap State
		if err := json.Unmarshal(raw, &snap); err != nil {
			return nil, fmt.Errorf("serve: corrupt snapshot %s: %w", snapPath, err)
		}
		if snap.Version != 1 {
			return nil, fmt.Errorf("serve: unsupported snapshot version %d", snap.Version)
		}
		if snap.Tenants == nil {
			snap.Tenants = make(map[string]*PersistedTenant)
		}
		if snap.Jobs == nil {
			snap.Jobs = make(map[string]*PersistedJob)
		}
		s.state = &snap
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("serve: reading snapshot: %w", err)
	}

	// Journal replay, skipping records the snapshot already covers.
	jPath := filepath.Join(dir, journalName)
	if f, err := os.Open(jPath); err == nil {
		recs, dropped, rerr := readJournal(f, s.state.Seq)
		cerr := f.Close()
		if rerr != nil {
			return nil, errors.Join(rerr, cerr)
		}
		if cerr != nil {
			return nil, fmt.Errorf("serve: closing journal: %w", cerr)
		}
		s.dropped = dropped
		for _, rec := range recs {
			p, err := decodePayload(rec)
			if err != nil {
				return nil, err
			}
			s.state.apply(p)
			s.state.Seq = rec.Seq
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("serve: opening journal: %w", err)
	}

	// Compact: snapshot the recovered state, then start a clean journal.
	if err := s.writeSnapshot(); err != nil {
		return nil, err
	}
	if err := os.Truncate(jPath, 0); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("serve: truncating journal: %w", err)
	}
	jw, err := openJournal(jPath)
	if err != nil {
		return nil, err
	}
	s.jw = jw
	return s, nil
}

// State exposes the in-memory mirror. Only Append and SetLibrary change
// it, under the store's lock; the fleet holds its own lock around both and
// around every read.
func (s *Store) State() *State { return s.state }

// Dropped reports how many crash-damaged journal tail records were dropped
// when the store was opened.
func (s *Store) Dropped() int { return s.dropped }

// Append journals one record and, once the line is written (and synced,
// when sync is set), folds it into the mirror. The fleet syncs every
// record. A failed write leaves the mirror as it was and fails the store:
// every later Append and Snapshot returns an error until it is reopened.
//
// The payload is encoded once, for the journal line. The mirror keeps the
// payload itself, so Append takes ownership of the payload's slices and
// pointers (chip states, job results, specs): the caller must not modify
// them afterwards. Its strings must be UTF-8, as every string the service
// journals is: the mirror keeps them as given and replay as decoded, and
// the two differ only where encoding/json replaces invalid bytes.
func (s *Store) Append(p payload, sync bool) error {
	typ := p.recordType()
	data, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("serve: encoding %s record: %w", typ, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	seq := s.state.Seq + 1
	rec := Record{Seq: seq, Type: typ, Data: data, CRC: recordCRC(seq, typ, data)}
	if err := s.jw.Append(rec, sync); err != nil {
		s.failed = fmt.Errorf("serve: store failed, reopen it to write again: %w", err)
		return err
	}
	s.state.apply(p)
	s.state.Seq = seq
	return nil
}

// AppendJobDone journals the end of a job: its result or error, and the
// chip state after it (chip.SaveState JSON). It is the record every job
// that runs ends with unless it is canceled, and the journal's costliest
// to write, since it carries a whole chip state. Append's ownership rule
// holds for result and state.
func (s *Store) AppendJobDone(job string, result *api.Execution, errMsg string, state []byte, sync bool) error {
	return s.Append(jobDoneRec{Job: job, Result: result, Error: errMsg, State: state}, sync)
}

// SetLibrary replaces the mirrored strategy-library JSON; the next snapshot
// persists it.
func (s *Store) SetLibrary(raw []byte) {
	s.mu.Lock()
	s.state.Library = raw
	s.mu.Unlock()
}

// Snapshot persists the mirror and truncates the journal.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	if err := s.writeSnapshot(); err != nil {
		return err
	}
	if err := s.jw.f.Truncate(0); err != nil {
		return fmt.Errorf("serve: truncating journal: %w", err)
	}
	if _, err := s.jw.f.Seek(0, 0); err != nil {
		return fmt.Errorf("serve: rewinding journal: %w", err)
	}
	return nil
}

// writeSnapshot marshals the mirror to snapshot.json via temp-file rename.
// Callers hold the journal lock (or have exclusive access during open).
func (s *Store) writeSnapshot() error {
	raw, err := json.Marshal(s.state)
	if err != nil {
		return fmt.Errorf("serve: encoding snapshot: %w", err)
	}
	tmp := filepath.Join(s.dir, snapshotName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("serve: creating snapshot temp: %w", err)
	}
	if _, err := f.Write(raw); err != nil {
		f.Close() //lint:ignore errflowstrict write already failed; the close error cannot add anything
		return fmt.Errorf("serve: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close() //lint:ignore errflowstrict sync already failed; the close error cannot add anything
		return fmt.Errorf("serve: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("serve: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotName)); err != nil {
		return fmt.Errorf("serve: publishing snapshot: %w", err)
	}
	return nil
}

// CloseAbrupt closes the journal file descriptor without snapshotting or
// syncing — the closest a clean process gets to a crash. The journal alone
// (every record of which was flushed at append time) carries the state; the
// kill-and-resume tests exercise recovery through this path.
func (s *Store) CloseAbrupt() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jw.f.Close() //lint:ignore errflowstrict simulating a crash: the close error is the point of abandoning cleanliness
}

// Close snapshots and closes the journal. A failed store writes no
// snapshot, but its journal is closed all the same.
func (s *Store) Close() error {
	err := s.Snapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	return errors.Join(err, s.jw.Close())
}
