package serve

import (
	"bytes"
	"testing"
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
