// Package journal persists the rlsimd daemon's job lifecycle to an
// append-only spool directory so a crashed or SIGKILLed server can pick
// up exactly where it left off. Two record kinds are written, one JSON
// object per line:
//
//   - accepted: a job entered the queue (id + full spec)
//   - terminal: a job settled (id + state, plus the error or the result)
//
// A job whose journal holds an accepted record with no terminal record
// was queued or running when the process died; because every simulation
// point derives all of its randomness from its spec, re-running such a
// job after restart reproduces its result byte for byte. The journal
// holds no per-point results: the daemon's content-addressed result
// cache spools beside it, so a re-run job takes the points that finished
// before the crash from the cache. Each append is fsynced before the
// daemon acknowledges the event it records, and replay tolerates a torn
// final line (a write cut short by the crash).
//
// Replay also tolerates record kinds it does not know: a line whose op
// is none of the above parses into a Record and is carried through
// untouched (Reduce skips it, KnownOp reports it), so a journal written
// by another version — a newer peer in a rolling upgrade, or an older
// daemon that wrote per-point records — never blocks this one from
// starting. Callers log such records instead of failing.
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"rlsched/internal/chaos"
)

// fileName is the journal file inside the spool directory.
const fileName = "jobs.journal"

// Record ops.
const (
	// OpAccepted records a job entering the queue.
	OpAccepted = "accepted"
	// OpTerminal records a job settling in a terminal state.
	OpTerminal = "terminal"
)

// KnownOp reports whether op is a record kind this version understands.
// Replay carries unknown ops through and callers skip them with a
// warning, which is what makes rolling upgrades of mixed-version peers
// safe: a newer peer's journal never blocks an older one from starting.
func KnownOp(op string) bool {
	return op == OpAccepted || op == OpTerminal
}

// Record is one journal line.
type Record struct {
	Op string `json:"op"`
	ID string `json:"id"`
	// Spec is the accepted job spec (OpAccepted only).
	Spec json.RawMessage `json:"spec,omitempty"`
	// State is the terminal state (OpTerminal only): done, failed,
	// cancelled or timeout.
	State string `json:"state,omitempty"`
	// Error carries the failure message of failed/timeout jobs.
	Error string `json:"error,omitempty"`
	// Result is the job's marshalled result payload (OpTerminal done
	// records only).
	Result json.RawMessage `json:"result,omitempty"`
}

// Entry is the folded per-job view of a journal: the accepted spec plus
// the terminal record, if one was written before the process died.
type Entry struct {
	ID   string
	Spec json.RawMessage
	// State is empty while the job is still owed work (no terminal
	// record): the server re-enqueues such entries on startup.
	State  string
	Error  string
	Result json.RawMessage
}

// Journal appends job lifecycle records to the spool. Safe for
// concurrent use.
type Journal struct {
	mu sync.Mutex
	f  chaos.File
}

// Open creates the spool directory if needed, replays every record
// already on disk and opens the journal for appending. A torn final line
// — the typical trace of a crash mid-write — is dropped silently;
// anything after it is unreachable and dropped with it.
func Open(dir string) (*Journal, []Record, error) {
	return OpenFS(dir, nil)
}

// OpenFS is Open over an explicit filesystem; nil selects the real OS
// filesystem. The seam exists for the chaos harness, which substitutes
// a fault-injecting chaos.FaultFS to prove torn appends and full disks
// behave like the crash cases the journal already survives.
func OpenFS(dir string, fsys chaos.FS) (*Journal, []Record, error) {
	if fsys == nil {
		fsys = chaos.OS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: creating spool: %w", err)
	}
	path := filepath.Join(dir, fileName)
	recs, clean, size, err := replay(fsys, path)
	if err != nil {
		return nil, nil, err
	}
	if clean < size {
		// Cut the torn tail off before appending: otherwise every future
		// record lands after an unparsable fragment and is unreachable on
		// the next replay.
		if err := fsys.Truncate(path, clean); err != nil {
			return nil, nil, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: opening spool: %w", err)
	}
	return &Journal{f: f}, recs, nil
}

// replay reads the journal, stopping at the first unparsable or
// unterminated line (a torn tail write). It returns the records, the
// byte length of the clean prefix and the total file size, so Open can
// truncate the tail away.
func replay(fsys chaos.FS, path string) (recs []Record, clean, size int64, err error) {
	data, err := fsys.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("journal: reading spool: %w", err)
	}
	size = int64(len(data))
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // unterminated tail: the crash interrupted this write
		}
		line := data[off : off+nl]
		next := off + nl + 1
		if len(bytes.TrimSpace(line)) == 0 {
			off, clean = next, int64(next)
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			break // torn tail terminated by a later append
		}
		recs = append(recs, r)
		off, clean = next, int64(next)
	}
	return recs, clean, size, nil
}

// Append writes one record and fsyncs it, so the record survives a crash
// the instant Append returns.
func (j *Journal) Append(r Record) error {
	data, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("journal: encoding record: %w", err)
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(data); err != nil {
		return fmt.Errorf("journal: appending record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: syncing spool: %w", err)
	}
	return nil
}

// Close releases the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// Reduce folds raw records into per-job entries in acceptance order.
// Terminal records without a matching accepted record are dropped (they
// cannot be re-run: the spec is gone); a duplicate terminal record keeps
// the last word.
func Reduce(recs []Record) []Entry {
	byID := make(map[string]*Entry)
	var order []string
	for _, r := range recs {
		switch r.Op {
		case OpAccepted:
			if _, ok := byID[r.ID]; ok {
				continue // duplicate accept: keep the first
			}
			byID[r.ID] = &Entry{ID: r.ID, Spec: r.Spec}
			order = append(order, r.ID)
		case OpTerminal:
			e, ok := byID[r.ID]
			if !ok {
				continue
			}
			e.State, e.Error, e.Result = r.State, r.Error, r.Result
		}
	}
	out := make([]Entry, len(order))
	for i, id := range order {
		out[i] = *byID[id]
	}
	return out
}
