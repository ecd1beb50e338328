// Durable journal: an append-only JSONL file of CRC-guarded records. The
// fleet service journals every state transition (tenant/chip creation,
// health uploads, job lifecycle) so a crashed or killed controller replays
// the journal on restart and resumes exactly where it stopped.
//
// Each line is one Record; the CRC covers the sequence number, type, and
// payload, so a record truncated or corrupted by a crash mid-append is
// detected and the tail from that point on is dropped cleanly — the journal
// is always a valid prefix of what was written. Records with sequence
// numbers at or below the latest snapshot's are skipped on replay, which
// makes the crash window of snapshot-then-truncate safe: replaying old
// records after a completed snapshot is a no-op, and a snapshot that never
// landed (its temp file was not renamed) leaves the full journal in force.
package serve

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
)

// Record is one journal line.
type Record struct {
	Seq  int64           `json:"seq"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data,omitempty"`
	CRC  uint32          `json:"crc"`
}

// recordCRC computes the checksum over (seq, type, data). The layout is
// length-prefixed so no (type, data) pair collides with another.
func recordCRC(seq int64, typ string, data []byte) uint32 {
	h := crc32.NewIEEE()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seq))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(len(typ)))
	h.Write(buf[:])
	io.WriteString(h, typ)
	h.Write(data)
	return h.Sum32()
}

// Check reports whether the record's CRC matches its contents.
func (r Record) Check() bool { return r.CRC == recordCRC(r.Seq, r.Type, r.Data) }

// journalWriter appends records to a JSONL file. It does no locking of its
// own: the Store serializes all access under one mutex so sequence
// assignment, the state-mirror update, and the file append stay atomic.
type journalWriter struct {
	f    *os.File
	line []byte // the encoding buffer, reused across records
}

func openJournal(path string) (*journalWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: opening journal: %w", err)
	}
	return &journalWriter{f: f}, nil
}

// Append writes one record as one line, in one write to the OS; when sync
// is set the record is also fsynced to stable storage before Append
// returns.
func (w *journalWriter) Append(rec Record, sync bool) error {
	line, err := appendRecord(w.line[:0], rec)
	if err != nil {
		return err
	}
	w.line = line
	if _, err := w.f.Write(line); err != nil {
		return fmt.Errorf("serve: appending journal record: %w", err)
	}
	if sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("serve: syncing journal: %w", err)
		}
	}
	return nil
}

// appendRecord appends rec's journal line to dst: the bytes json.Marshal
// gives for rec, and a newline. It writes them directly, since rec.Data
// is already what encoding/json would copy there: the compact, valid,
// HTML-escaped JSON json.Marshal produced for the payload (Store.Append
// makes it no other way). Re-marshaling would only compact and validate
// a whole chip state a second time. Record types are plain identifiers;
// one that JSON would have to escape is refused.
func appendRecord(dst []byte, rec Record) ([]byte, error) {
	for i := 0; i < len(rec.Type); i++ {
		if c := rec.Type[i]; c != '_' && (c < 'a' || c > 'z') {
			return dst, fmt.Errorf("serve: journal record type %q is not a plain identifier", rec.Type)
		}
	}
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendInt(dst, rec.Seq, 10)
	dst = append(dst, `,"type":"`...)
	dst = append(dst, rec.Type...)
	dst = append(dst, '"')
	if len(rec.Data) > 0 { // omitempty
		dst = append(dst, `,"data":`...)
		dst = append(dst, rec.Data...)
	}
	dst = append(dst, `,"crc":`...)
	dst = strconv.AppendUint(dst, uint64(rec.CRC), 10)
	return append(dst, '}', '\n'), nil
}

// Close syncs and closes the journal file.
func (w *journalWriter) Close() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("serve: syncing journal: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("serve: closing journal: %w", err)
	}
	return nil
}

// readJournal parses a journal stream, returning every valid record with
// Seq > afterSeq, in order. Parsing stops — without error — at the first
// malformed line, CRC mismatch, or sequence regression: anything past that
// point is a crash-damaged tail and dropped is its record-or-fragment count.
// Real I/O errors (not corruption) are returned as err.
func readJournal(r io.Reader, afterSeq int64) (recs []Record, dropped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var lastSeq int64
	seen := false // whether lastSeq is set: a Seq may be any int64, so no sentinel works
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		if json.Unmarshal(line, &rec) != nil || !rec.Check() || (seen && rec.Seq <= lastSeq) {
			// Corrupt or out-of-order tail: count the rest and stop.
			dropped++
			for sc.Scan() {
				dropped++
			}
			break
		}
		lastSeq, seen = rec.Seq, true
		if rec.Seq > afterSeq {
			recs = append(recs, rec)
		}
	}
	if scanErr := sc.Err(); scanErr != nil {
		if scanErr == bufio.ErrTooLong {
			// An over-long line is tail damage, not an I/O failure.
			dropped++
			return recs, dropped, nil
		}
		return recs, dropped, fmt.Errorf("serve: reading journal: %w", scanErr)
	}
	return recs, dropped, nil
}
