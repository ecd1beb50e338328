package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"meda/internal/chip"
	"meda/internal/randx"
	"meda/pkg/api"
)

// FuzzReadJournal replays arbitrary bytes as a journal. Damage of any kind
// is a dropped tail, never an error: an in-memory reader has no I/O to
// fail. Every record replay returns must pass its CRC, lie past the
// snapshot's sequence number, and follow its predecessor in strictly
// increasing order. The seed corpus holds a valid journal, a truncated
// tail, a flipped byte and a sequence regression.
func FuzzReadJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, afterSeq int64) {
		recs, _, err := readJournal(bytes.NewReader(data), afterSeq)
		if err != nil {
			t.Fatalf("in-memory replay failed: %v", err)
		}
		for i, rec := range recs {
			if !rec.Check() {
				t.Fatalf("record %d (seq %d) fails its CRC", i, rec.Seq)
			}
			if rec.Seq <= afterSeq {
				t.Fatalf("record %d has seq %d, not after %d", i, rec.Seq, afterSeq)
			}
			if i > 0 && rec.Seq <= recs[i-1].Seq {
				t.Fatalf("record %d has seq %d after %d", i, rec.Seq, recs[i-1].Seq)
			}
		}
	})
}

// FuzzReplayRecords folds a record sequence drawn from every record type,
// over two tenants, two chips and three jobs, into a State the way replay
// does (decodePayload, then apply), and restores a fleet from it. Each
// record takes three bytes: its type, and two that pick its ids, chip
// state and outcome; chip states come from a fixed valid pair. Whatever the
// sequence, restoring and reading the fleet may fail but never panics.
func FuzzReplayRecords(f *testing.F) {
	var states [2]json.RawMessage
	for i := range states {
		spec := api.ChipSpec{ID: "c", W: 6, H: 4, Seed: uint64(i + 1)}
		c, err := chip.New(chipConfig(spec), randx.New(spec.Seed).Split("chip"))
		if err != nil {
			f.Fatal(err)
		}
		if states[i], err = saveState(c); err != nil {
			f.Fatal(err)
		}
	}
	tenants, chips := []string{"t0", "t1"}, []string{"c0", "c1"}
	jobs := []string{"j-000001", "j-000002", "j-000003"}
	record := func(op, a, b byte) payload {
		tenant, chipID, jobID, state := tenants[a%2], chips[b%2], jobs[a%3], states[b>>1%2]
		if b>>2%2 == 1 {
			state = nil
		}
		switch op % 9 {
		case 0:
			return tenantCreateRec{ID: tenant}
		case 1:
			return webhookAddRec{Tenant: tenant, Spec: api.WebhookSpec{URL: "http://127.0.0.1:1/hook"}}
		case 2:
			return chipCreateRec{Tenant: tenant, Spec: api.ChipSpec{ID: chipID, W: 6, H: 4, Seed: uint64(b)}, State: states[b>>1%2]}
		case 3:
			return chipHealthRec{Tenant: tenant, Chip: chipID, State: states[b>>1%2]}
		case 4:
			return jobSubmitRec{ID: jobID, Tenant: tenant, Spec: api.JobSpec{Chip: chipID, Benchmark: "serial-dilution", Seed: uint64(b)}}
		case 5:
			return jobStartRec{Job: jobID, Tenant: tenant, Chip: chipID, State: state}
		case 6:
			return jobProgressRec{Job: jobID, Progress: api.Progress{Cycle: int(b)}}
		case 7:
			if b>>3%2 == 1 {
				return jobDoneRec{Job: jobID, Error: "route: no path", State: state}
			}
			return jobDoneRec{Job: jobID, Result: &api.Execution{Success: b%2 == 0, Cycles: int(b)}, State: state}
		default:
			return jobCancelRec{Job: jobID, State: state}
		}
	}
	// Every record type, for two tenants whose jobs end each way.
	f.Add([]byte{0, 0, 0, 1, 0, 0, 2, 0, 0, 4, 0, 0, 5, 0, 0, 6, 0, 0, 7, 0, 0, 0, 1, 0, 2, 1, 3, 3, 1, 3,
		4, 1, 1, 8, 1, 0, 4, 2, 0, 7, 2, 8, 4, 0, 0})
	f.Fuzz(func(t *testing.T, seq []byte) {
		st := newState()
		for i := 0; i+3 <= len(seq); i += 3 {
			p := record(seq[i], seq[i+1], seq[i+2])
			data, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			n := int64(i/3 + 1)
			back, err := decodePayload(Record{Seq: n, Type: p.recordType(), Data: data, CRC: recordCRC(n, p.recordType(), data)})
			if err != nil {
				t.Fatal(err)
			}
			st.apply(back)
			st.Seq = n
		}
		fl, err := NewFleet(Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer fl.Shutdown() //lint:ignore errflowstrict an ephemeral fleet has nothing to persist
		fl.state = st
		if fl.restore() != nil {
			return
		}
		fl.Tenants()
		for _, tenant := range tenants {
			fl.Chips(tenant)          //lint:ignore errflowstrict only a panic fails the property
			fl.Jobs(tenant, "")       //lint:ignore errflowstrict only a panic fails the property
			fl.Jobs(tenant, chips[0]) //lint:ignore errflowstrict only a panic fails the property
		}
		fl.Healthz()
	})
}
