package service

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// Journal is the checkpoint record of one sweep: an append-only text
// file of "<index> <key>" lines, one per completed cell, written in
// delivery order. Because both the single-process stream
// (sweep.Grid.Run) and the coordinator's re-emit path deliver
// results as a prefix of cell order, a journal is always a prefix of
// the grid's cell sequence — so a killed sweep can report exactly how
// far it got, and a resumed one replays that prefix from the
// content-addressed cache (the cache, not the journal, holds the
// payloads; the journal is the ordered table of contents).
//
// Each line is flushed to the OS as it is appended (there is no
// fsync), so a killed process loses at most the cell in flight; a power
// loss can lose more. A torn final line (crash mid-write) is dropped on
// load.
type Journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	w    *bufio.Writer
}

// JournalEntry is one completed cell: its grid index and its
// content-addressed cache key.
type JournalEntry struct {
	Index int
	Key   string
}

// LoadJournal reads the entries of the journal at path, if it exists
// (a missing file is zero entries, not an error). A trailing partial
// line is ignored.
func LoadJournal(path string) ([]JournalEntry, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []JournalEntry
	lines := strings.Split(string(b), "\n")
	for i, line := range lines {
		if line == "" {
			continue
		}
		if i == len(lines)-1 && !strings.HasSuffix(string(b), "\n") {
			break // torn final line from a crash mid-append
		}
		idx, key, ok := strings.Cut(line, " ")
		n, err := strconv.Atoi(idx)
		if !ok || err != nil || key == "" {
			return nil, fmt.Errorf("service: corrupt journal %s line %d: %q", path, i+1, line)
		}
		out = append(out, JournalEntry{Index: n, Key: key})
	}
	return out, nil
}

// OpenJournal opens the journal at path for appending, creating parent
// directories as needed. With resume false any existing journal is
// truncated (a fresh run); with resume true appends continue after the
// existing entries (load them first with LoadJournal) — a torn final
// line from a crash mid-append is cut off first, so the next Append
// starts on a clean line.
func OpenJournal(path string, resume bool) (*Journal, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if resume {
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 && b[len(b)-1] != '\n' {
			keep := 0
			if i := strings.LastIndexByte(string(b), '\n'); i >= 0 {
				keep = i + 1
			}
			if err := os.Truncate(path, int64(keep)); err != nil {
				return nil, err
			}
		}
	}
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if !resume {
		flags = os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	return &Journal{path: path, f: f, w: bufio.NewWriter(f)}, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Append records one completed cell and flushes it to the OS.
func (j *Journal) Append(index int, key string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := fmt.Fprintf(j.w, "%d %s\n", index, key); err != nil {
		return err
	}
	return j.w.Flush()
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	ferr := j.w.Flush()
	cerr := j.f.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}
