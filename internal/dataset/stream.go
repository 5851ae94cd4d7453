// Streaming (v4) dataset access: a full-Internet catchment is ~12M
// entries, and the columnar sweep core can produce one without ever
// building a per-block map — so the persistence layer must not force
// one either. StreamWriter emits entries as they are produced and
// StreamReader hands them back one at a time; both hold O(1) state
// beyond the metadata header, whatever the record length.
//
// The v4 entry section is strictly ascending by block, which is what
// makes constant-memory reading trustworthy: a reader can merge, diff,
// or fold two files positionally without buffering either.
package dataset

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"time"

	"verfploeter/internal/ipv4"
	"verfploeter/internal/verfploeter"
)

// Entry is one catchment row as stored on disk. RTT zero means no RTT
// was recorded for the block (simulated RTTs are never zero).
type Entry struct {
	Block ipv4.Block
	Site  int
	RTT   time.Duration
}

// StreamWriter writes a v4 dataset incrementally: construct with the
// header (metadata, stats, and the exact entry count), Append each
// entry in strictly ascending block order, then Close. Memory use is
// constant regardless of the entry count.
type StreamWriter struct {
	zw    *gzip.Writer
	bw    *bufio.Writer
	nSite int
	left  int
	last  ipv4.Block
	first bool
}

// NewStreamWriter writes the v4 header and returns a writer expecting
// exactly n entries. The format capacity limits are enforced here, so a
// stream that starts is one every reader will load back.
func NewStreamWriter(w io.Writer, meta Meta, stats verfploeter.Stats, nSite, n int) (*StreamWriter, error) {
	if len(meta.Sites) > MaxMetaSites {
		return nil, fmt.Errorf("%w: %d metadata sites (max %d)", ErrLimit, len(meta.Sites), MaxMetaSites)
	}
	if nSite <= 0 || nSite > MaxSites {
		return nil, fmt.Errorf("%w: catchment with %d sites (max %d)", ErrLimit, nSite, MaxSites)
	}
	if n < 0 || n > MaxEntries {
		return nil, fmt.Errorf("%w: %d entries (max %d)", ErrLimit, n, MaxEntries)
	}
	zw, _ := gzip.NewWriterLevel(w, compressLevel) // errors only on an invalid level
	bw := bufio.NewWriter(zw)

	bw.Write(magic[:])
	writeU16(bw, version)
	writeMeta(bw, meta)

	writeU64(bw, uint64(stats.Sent))
	writeU64(bw, uint64(stats.SendErrs))
	writeU64(bw, uint64(stats.Elapsed))
	writeU64(bw, uint64(stats.MedianRTT))
	writeU64(bw, uint64(stats.Clean.Total))
	writeU64(bw, uint64(stats.Clean.WrongRound))
	writeU64(bw, uint64(stats.Clean.Late))
	writeU64(bw, uint64(stats.Clean.Unsolicited))
	writeU64(bw, uint64(stats.Clean.Duplicates))
	writeU64(bw, uint64(stats.Clean.Kept))
	writeU64(bw, uint64(stats.Targets))
	writeU64(bw, uint64(stats.Responded))
	writeU64(bw, uint64(stats.Retried))

	writeU32(bw, uint32(nSite))
	writeU32(bw, uint32(n))
	return &StreamWriter{zw: zw, bw: bw, nSite: nSite, left: n, first: true}, nil
}

// Append writes one entry. Blocks must arrive strictly ascending; site
// must be in range; a non-positive rtt records the entry without one.
// Sub-microsecond RTTs are kept exactly — v4's nanosecond field has no
// lossy quantization to collide with the no-RTT marker.
func (sw *StreamWriter) Append(b ipv4.Block, site int, rtt time.Duration) error {
	if sw.left <= 0 {
		return fmt.Errorf("%w: more entries than declared", ErrFormat)
	}
	if !sw.first && b <= sw.last {
		return fmt.Errorf("%w: entries not ascending at %v", ErrFormat, b)
	}
	if site < 0 || site >= sw.nSite {
		return fmt.Errorf("%w: entry site %d of %d", ErrFormat, site, sw.nSite)
	}
	sw.first = false
	sw.last = b
	sw.left--
	writeEntry(sw.bw, b, site, rtt)
	return nil
}

// Close verifies the declared entry count was reached and finishes the
// compressed stream.
func (sw *StreamWriter) Close() error {
	if sw.left != 0 {
		return fmt.Errorf("%w: %d entries short of declared count", ErrFormat, sw.left)
	}
	if err := sw.bw.Flush(); err != nil {
		return err
	}
	return sw.zw.Close()
}

// StreamReader reads a dataset one entry at a time with constant
// memory. It accepts every dataset version (v1/v2 entries are converted
// from their microsecond encoding); for v4 files it additionally
// enforces the ascending-block contract.
type StreamReader struct {
	zr      *gzip.Reader
	br      *bufio.Reader
	version uint16
	meta    Meta
	stats   verfploeter.Stats
	nSite   int
	n       int
	read    int
	last    ipv4.Block
}

// NewStreamReader parses the header — metadata, stats, and entry count
// — leaving the entries to Next.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("%w: not gzip: %v", ErrFormat, err)
	}
	sr := &StreamReader{zr: zr, br: bufio.NewReader(zr)}
	ok := false
	defer func() {
		if !ok {
			zr.Close()
		}
	}()
	if sr.version, err = readVersion(sr.br); err != nil {
		return nil, err
	}
	if sr.meta, sr.stats, err = readHeader(sr.br, sr.version); err != nil {
		return nil, err
	}
	catchSites, n, err := readEntryCounts(sr.br)
	if err != nil {
		return nil, err
	}
	sr.nSite, sr.n = int(catchSites), int(n)
	ok = true
	return sr, nil
}

// Meta returns the run's metadata.
func (sr *StreamReader) Meta() Meta { return sr.meta }

// Stats returns the run's sweep statistics.
func (sr *StreamReader) Stats() verfploeter.Stats { return sr.stats }

// NSite returns the catchment's site count.
func (sr *StreamReader) NSite() int { return sr.nSite }

// Len returns the declared entry count.
func (sr *StreamReader) Len() int { return sr.n }

// Version returns the file's format version.
func (sr *StreamReader) Version() uint16 { return sr.version }

// Next returns the next entry, or io.EOF once all declared entries have
// been read. Any malformed entry — bad site, out-of-order block in a v4
// file, short read — surfaces as a wrapped ErrFormat.
func (sr *StreamReader) Next() (Entry, error) {
	if sr.read >= sr.n {
		return Entry{}, io.EOF
	}
	e, err := readEntry(sr.br, sr.version, sr.nSite)
	if err != nil {
		return Entry{}, err
	}
	if sr.version >= version {
		if sr.read > 0 && e.Block <= sr.last {
			return Entry{}, fmt.Errorf("%w: entries not ascending at %v", ErrFormat, e.Block)
		}
		sr.last = e.Block
	}
	sr.read++
	return e, nil
}

// Close releases the decompressor. When every entry has been consumed
// it also demands a clean end of record, which forces the gzip checksum
// to be verified — a truncated or tampered trailer fails here rather
// than passing silently.
func (sr *StreamReader) Close() error {
	defer sr.zr.Close()
	if sr.read == sr.n {
		return expectEOF(sr.br)
	}
	return nil
}
