// Package dataset persists complete Verfploeter measurement runs the way
// the paper publishes them (Table 1: SBA-5-15, SBV-5-15, STV-3-23, ...).
// A dataset file carries the measurement's metadata, its cleaned
// catchment (with per-block RTTs when recorded), and the round's
// statistics, so analyses can be re-run and two runs can be diffed —
// the paper's month-over-month comparison of SBV-4-21 vs SBV-5-15 is
// exactly such a diff.
//
// The format is a gzip-compressed binary record; the paper's own release
// totals ~128MB per measurement, so compactness matters.
package dataset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"time"

	"verfploeter/internal/colstore"
	"verfploeter/internal/ipv4"
	"verfploeter/internal/verfploeter"
)

// Format constants.
var magic = [4]byte{'V', 'P', 'D', 'S'}

// version 2 appended the sweep-health stats (Targets, Responded,
// Retried) to the stats block; version 4 is the streaming format:
// entries sorted strictly ascending by block with full-precision
// nanosecond RTTs (0 = no RTT recorded), so a reader can fold or
// forward a full-Internet map one entry at a time without ever holding
// it resident. Version-1 and version-2 files still read (v1 with the
// missing stats zero); version 3 is the monitoring-series container.
const version = 4

// compressLevel is the deflate level of every writer (the v4 stream and
// the v3 series). Level 2 deflates the internet-tier v4 payload (8.4 MB)
// about 3x faster than the default level 6 for 0.74 % more bytes; the
// format and readers do not depend on the level. See DESIGN.md.
const compressLevel = 2

// Writers emit the current version; readers accept these legacy ones.
const (
	versionV1 = 1
	versionV2 = 2
)

// Format capacity limits, enforced symmetrically: the readers have
// always rejected files beyond them, and the writers refuse to produce
// such files rather than emitting records no reader will load back.
const (
	// MaxEntries caps catchment entries per record (2^27 /24 blocks
	// covers the full unicast IPv4 space with headroom).
	MaxEntries = 1 << 27
	// MaxSites caps the catchment's site-number space (entries store
	// sites as u16).
	MaxSites = 1 << 16
	// MaxMetaSites caps the metadata site-code list; real deployments
	// have tens of sites, so anything past this is a corrupt length.
	MaxMetaSites = 4096
)

// ErrFormat is returned (wrapped) for malformed dataset files.
var ErrFormat = errors.New("dataset: bad format")

// ErrLimit is returned (wrapped) when a dataset being written exceeds a
// format capacity limit — the same limits the readers enforce.
var ErrLimit = errors.New("dataset: capacity limit exceeded")

// Meta identifies one measurement run, mirroring the paper's Table 1.
type Meta struct {
	// ID names the dataset, e.g. "SBV-5-15" (Scan, B-root, Verfploeter,
	// May 15).
	ID       string
	Scenario string   // "b-root", "tangled", ...
	Sites    []string // site codes, index = site number
	RoundID  uint16
	Seed     uint64
	// Created is caller-supplied (virtual time offsets serialize fine).
	CreatedUnix int64
}

// Dataset is one run's persisted result.
type Dataset struct {
	Meta      Meta
	Catchment *verfploeter.Catchment
	Stats     verfploeter.Stats
}

// Write serializes the dataset in the current (v4) format: entries
// sorted ascending by block, RTTs at full nanosecond precision. The
// historic v1/v2 microsecond encoding silently dropped RTTs under 1µs
// (the truncated value 0 doubles as the no-RTT marker); v4's nanosecond
// field keeps any recorded RTT, however small.
func Write(w io.Writer, ds *Dataset) error {
	if ds == nil || ds.Catchment == nil {
		return fmt.Errorf("%w: nil dataset or catchment", ErrFormat)
	}
	blocks := ds.Catchment.Blocks()
	sw, err := NewStreamWriter(w, ds.Meta, ds.Stats, ds.Catchment.NSite, len(blocks))
	if err != nil {
		return err
	}
	for _, b := range blocks {
		site, _ := ds.Catchment.SiteOf(b)
		rtt, _ := ds.Catchment.RTTOf(b)
		if err := sw.Append(b, site, rtt); err != nil {
			return err
		}
	}
	return sw.Close()
}

// Read deserializes a dataset (any supported version) into a resident
// Catchment over an index of the file's blocks. v1/v2 entries carry no
// ordering promise: they are indexed in sorted order, and a block listed
// twice keeps its first entry. For constant-memory access to large v4
// files, use NewStreamReader instead.
func Read(r io.Reader) (*Dataset, error) {
	sr, err := NewStreamReader(r)
	if err != nil {
		return nil, err
	}
	entries := make([]Entry, 0, min(sr.Len(), entryPrealloc))
	for {
		e, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			sr.Close()
			return nil, err
		}
		entries = append(entries, e)
	}
	if err := sr.Close(); err != nil {
		return nil, err
	}
	return &Dataset{
		Meta:      sr.Meta(),
		Catchment: catchmentOf(sr.NSite(), entries, nil),
		Stats:     sr.Stats(),
	}, nil
}

// entryPrealloc caps the entry capacity reserved up front from a
// declared count, so a corrupt header cannot force a huge allocation
// before any entry has been read.
const entryPrealloc = 1 << 16

// catchmentOf builds a catchment over an index of the entries' blocks
// plus extra, and records the entries in order, so a block listed twice
// keeps its first entry.
func catchmentOf(nSite int, entries []Entry, extra []ipv4.Block) *verfploeter.Catchment {
	blocks := make([]ipv4.Block, 0, len(entries)+len(extra))
	for _, e := range entries {
		blocks = append(blocks, e.Block)
	}
	blocks = append(blocks, extra...)
	slices.Sort(blocks)
	c := verfploeter.NewCatchment(nSite, colstore.NewIndex(slices.Compact(blocks)))
	for _, e := range entries {
		c.SetRTT(e.Block, e.Site, e.RTT)
	}
	return c
}

// readVersion consumes the magic and version, rejecting the series
// container and unknown versions.
func readVersion(br *bufio.Reader) (uint16, error) {
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil || m != magic {
		return 0, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	v, err := readU16(br)
	if err != nil {
		return 0, err
	}
	if v == seriesVersion {
		return 0, fmt.Errorf("%w: file is a monitoring series (v%d) — use ReadSeries", ErrFormat, v)
	}
	if v < versionV1 || v > version {
		return 0, fmt.Errorf("%w: version %d", ErrFormat, v)
	}
	return v, nil
}

// readHeader parses the meta and stats blocks, identical across all
// dataset versions except that v1 lacks the sweep-health stats tail.
func readHeader(br *bufio.Reader, v uint16) (Meta, verfploeter.Stats, error) {
	meta, err := readMeta(br)
	if err != nil {
		return meta, verfploeter.Stats{}, err
	}
	nStats := 10
	if v >= versionV2 {
		nStats = 13
	}
	stats := make([]uint64, 13) // v1 files leave the tail zero
	for i := 0; i < nStats; i++ {
		if stats[i], err = readU64(br); err != nil {
			return meta, verfploeter.Stats{}, err
		}
	}
	return meta, verfploeter.Stats{
		Sent:      int(stats[0]),
		SendErrs:  int(stats[1]),
		Elapsed:   time.Duration(stats[2]),
		MedianRTT: time.Duration(stats[3]),
		Clean: verfploeter.CleanStats{
			Total: int(stats[4]), WrongRound: int(stats[5]), Late: int(stats[6]),
			Unsolicited: int(stats[7]), Duplicates: int(stats[8]), Kept: int(stats[9]),
		},
		Targets: int(stats[10]), Responded: int(stats[11]), Retried: int(stats[12]),
	}, nil
}

// writeMeta encodes the metadata block shared by the v4 dataset and
// v3 series headers.
func writeMeta(bw *bufio.Writer, meta Meta) {
	writeString(bw, meta.ID)
	writeString(bw, meta.Scenario)
	writeU16(bw, uint16(len(meta.Sites)))
	for _, s := range meta.Sites {
		writeString(bw, s)
	}
	writeU16(bw, meta.RoundID)
	writeU64(bw, meta.Seed)
	writeU64(bw, uint64(meta.CreatedUnix))
}

// readMeta parses the block writeMeta emits.
func readMeta(br *bufio.Reader) (Meta, error) {
	var meta Meta
	var err error
	if meta.ID, err = readString(br); err != nil {
		return meta, err
	}
	if meta.Scenario, err = readString(br); err != nil {
		return meta, err
	}
	nSites, err := readU16(br)
	if err != nil {
		return meta, err
	}
	if nSites > MaxMetaSites {
		return meta, fmt.Errorf("%w: %d sites", ErrFormat, nSites)
	}
	for i := 0; i < int(nSites); i++ {
		s, err := readString(br)
		if err != nil {
			return meta, err
		}
		meta.Sites = append(meta.Sites, s)
	}
	if meta.RoundID, err = readU16(br); err != nil {
		return meta, err
	}
	if meta.Seed, err = readU64(br); err != nil {
		return meta, err
	}
	created, err := readU64(br)
	if err != nil {
		return meta, err
	}
	meta.CreatedUnix = int64(created)
	return meta, nil
}

// readEntryCounts parses and bounds-checks the catchment preamble.
func readEntryCounts(br *bufio.Reader) (catchSites, n uint32, err error) {
	if catchSites, err = readU32(br); err != nil {
		return 0, 0, err
	}
	if catchSites == 0 || catchSites > MaxSites {
		return 0, 0, fmt.Errorf("%w: catchment with %d sites", ErrFormat, catchSites)
	}
	if n, err = readU32(br); err != nil {
		return 0, 0, err
	}
	if n > MaxEntries {
		return 0, 0, fmt.Errorf("%w: %d entries", ErrFormat, n)
	}
	return catchSites, n, nil
}

// writeEntry encodes one entry in the v4 layout, which the v3 series
// shares for its baseline and deltas: u32 block, u16 site, u64 RTT
// nanoseconds (0 = none; a non-positive rtt records none).
func writeEntry(bw *bufio.Writer, b ipv4.Block, site int, rtt time.Duration) {
	writeU32(bw, uint32(b))
	writeU16(bw, uint16(site))
	writeU64(bw, uint64(max(rtt, 0)))
}

// readEntry parses one catchment entry in the given version's encoding:
// u32 µs RTT for v1/v2, u64 ns for v4 and the v3 series. Zero means no
// RTT either way.
func readEntry(br *bufio.Reader, v uint16, catchSites int) (Entry, error) {
	blk, err := readU32(br)
	if err != nil {
		return Entry{}, err
	}
	site, err := readU16(br)
	if err != nil {
		return Entry{}, err
	}
	var rtt time.Duration
	if v >= version {
		rttNanos, err := readU64(br)
		if err != nil {
			return Entry{}, err
		}
		if rttNanos > math.MaxInt64 {
			return Entry{}, fmt.Errorf("%w: rtt overflow", ErrFormat)
		}
		rtt = time.Duration(rttNanos)
	} else {
		rttMicros, err := readU32(br)
		if err != nil {
			return Entry{}, err
		}
		rtt = time.Duration(rttMicros) * time.Microsecond
	}
	if int(site) >= catchSites {
		return Entry{}, fmt.Errorf("%w: entry site %d of %d", ErrFormat, site, catchSites)
	}
	return Entry{Block: ipv4.Block(blk), Site: int(site), RTT: rtt}, nil
}

// expectEOF demands the record end exactly where parsing stopped. The
// read-through also makes the gzip layer verify its checksum — without
// it a file with a truncated trailer parses silently.
func expectEOF(br *bufio.Reader) error {
	if _, err := br.ReadByte(); err == nil {
		return fmt.Errorf("%w: trailing data after record", ErrFormat)
	} else if err != io.EOF {
		return fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return nil
}

// WriteFile saves a dataset to a file.
func WriteFile(path string, ds *Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, ds); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads a dataset from a file.
func ReadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// DiffReport compares two runs — the paper's SBV-4-21 vs SBV-5-15 style
// month-over-month analysis.
type DiffReport struct {
	Transitions verfploeter.DiffStats
	// ShareDelta[s] is dataset B's site-s block share minus A's, for
	// sites present in both.
	ShareDelta []float64
}

// Diff compares dataset a (earlier) to b (later). The site counts must
// match; datasets from different deployments do not diff meaningfully.
func Diff(a, b *Dataset) (DiffReport, error) {
	if a.Catchment.NSite != b.Catchment.NSite {
		return DiffReport{}, fmt.Errorf("dataset: diff across %d vs %d sites", a.Catchment.NSite, b.Catchment.NSite)
	}
	rep := DiffReport{
		Transitions: verfploeter.Diff(a.Catchment, b.Catchment),
		ShareDelta:  make([]float64, a.Catchment.NSite),
	}
	for s := 0; s < a.Catchment.NSite; s++ {
		rep.ShareDelta[s] = b.Catchment.Fraction(s) - a.Catchment.Fraction(s)
	}
	return rep, nil
}

// --- primitive serialization helpers ---

// spare returns w's spare capacity (AvailableBuffer) with room for n
// more bytes, flushing first when the buffer is nearly full, so the
// write helpers encode in place and never allocate: no scratch array
// escapes and no append outgrows the buffer. A flush error sticks to w
// and surfaces at the final Flush.
func spare(w *bufio.Writer, n int) []byte {
	if w.Available() < n {
		w.Flush()
	}
	return w.AvailableBuffer()
}

func writeU16(w *bufio.Writer, v uint16) {
	w.Write(binary.BigEndian.AppendUint16(spare(w, 2), v))
}

func writeU32(w *bufio.Writer, v uint32) {
	w.Write(binary.BigEndian.AppendUint32(spare(w, 4), v))
}

func writeU64(w *bufio.Writer, v uint64) {
	w.Write(binary.BigEndian.AppendUint64(spare(w, 8), v))
}

func writeString(w *bufio.Writer, s string) {
	if len(s) > 1<<15 {
		s = s[:1<<15]
	}
	writeU16(w, uint16(len(s)))
	w.WriteString(s)
}

func readU16(r *bufio.Reader) (uint16, error) {
	var b [2]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return binary.BigEndian.Uint16(b[:]), nil
}

func readU32(r *bufio.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return binary.BigEndian.Uint32(b[:]), nil
}

func readU64(r *bufio.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return binary.BigEndian.Uint64(b[:]), nil
}

func readString(r *bufio.Reader) (string, error) {
	n, err := readU16(r)
	if err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return string(buf), nil
}
