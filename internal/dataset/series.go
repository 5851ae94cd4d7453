package dataset

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"verfploeter/internal/ipv4"
	"verfploeter/internal/verfploeter"
)

// Format v3 is the continuous-monitoring series: one full baseline
// catchment plus delta-encoded epochs (the blocks that flipped,
// appeared, or went silent) and the drift events the monitor emitted.
// A month of 15-minute epochs on a stable deployment is a few thousand
// tiny flip sets on top of one map — delta encoding is what makes a
// series file barely larger than a single run. Single-run files stay at
// version 2; the kind byte after the version separates record types
// within v3.
const (
	seriesVersion = 3
	kindSeries    = 1
)

// EventType classifies one drift event in the monitor's stream.
type EventType uint8

const (
	// EventFlips: blocks changed catchment site this epoch.
	EventFlips EventType = iota + 1
	// EventLoadShift: a site's load share moved past the threshold.
	EventLoadShift
	// EventCoverageDrop: the mapped share of the hitlist fell.
	EventCoverageDrop
	// EventSiteDark: a site that had catchment lost all of it.
	EventSiteDark
	// EventSiteRestored: a dark site's catchment returned.
	EventSiteRestored
)

func (t EventType) String() string {
	switch t {
	case EventFlips:
		return "flips"
	case EventLoadShift:
		return "load-shift"
	case EventCoverageDrop:
		return "coverage-drop"
	case EventSiteDark:
		return "site-dark"
	case EventSiteRestored:
		return "site-restored"
	}
	return fmt.Sprintf("event(%d)", uint8(t))
}

// Cause classifies why an epoch drifted, where attributable: operator
// actions (prepend change, site withdrawal) are known; a site going
// silent without an operator action reads as a blackout; everything
// else — tie-break drift, fault churn — is unexplained.
type Cause uint8

const (
	CauseNone Cause = iota
	CausePrepend
	CauseWithdraw
	CauseBlackout
	// CausePlaybook marks drift introduced by the playbook engine's own
	// automatic re-announcement (internal/playbook) rather than a human
	// operator action or the world drifting on its own.
	CausePlaybook
	CauseUnexplained
	// CausePredictMiss marks drift the probe-free predictor
	// (internal/predict) declared stable but the escalation machinery
	// observed anyway — out-of-band perturbation the control plane
	// could not see. Appended after CauseUnexplained so existing
	// serialized byte values stay stable.
	CausePredictMiss
)

func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CausePrepend:
		return "prepend"
	case CauseWithdraw:
		return "withdraw"
	case CauseBlackout:
		return "blackout"
	case CausePlaybook:
		return "playbook"
	case CauseUnexplained:
		return "unexplained"
	case CausePredictMiss:
		return "predict-miss"
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// Event is one typed drift observation.
type Event struct {
	Epoch int
	Type  EventType
	Cause Cause
	// Site is the affected site, or -1 when the event is not
	// site-specific (flips, coverage drops).
	Site int
	// Blocks counts the blocks involved (flipped, lost, ...).
	Blocks int
	// Magnitude is the event's size in its natural unit: flipped
	// fraction of the map, load-share delta, coverage delta.
	Magnitude float64
}

func (e Event) String() string {
	s := fmt.Sprintf("epoch %d: %s", e.Epoch, e.Type)
	if e.Site >= 0 {
		s += fmt.Sprintf(" site %d", e.Site)
	}
	if e.Blocks > 0 {
		s += fmt.Sprintf(" (%d blocks)", e.Blocks)
	}
	s += fmt.Sprintf(" magnitude %.4f, cause %s", e.Magnitude, e.Cause)
	return s
}

// Delta is one re-mapped block in an epoch's flip set. RTT is stored at
// full nanosecond precision (0 = no RTT recorded) so At() reconstructs
// each epoch's map exactly, bit for bit.
type Delta struct {
	Block ipv4.Block
	Site  int16
	RTT   time.Duration
}

// SeriesEpoch is one monitored epoch, encoded as the difference against
// its predecessor.
type SeriesEpoch struct {
	Epoch int
	// Probes is the count actually sent this epoch (samples plus
	// escalation re-probes plus retries); SampledTargets the targets the
	// sampling pass selected; EscalatedStrata how many strata escalated
	// to a full re-probe.
	Probes          int
	SampledTargets  int
	EscalatedStrata int

	Changed []Delta      // blocks whose site or RTT changed
	Added   []Delta      // blocks newly responsive
	Removed []ipv4.Block // blocks that went silent
	Events  []Event
}

// Series is a continuous-monitoring run: baseline map plus delta-encoded
// epochs.
type Series struct {
	Meta Meta
	// Strata and SampleRate record the monitor configuration that
	// produced the series (SampleRate 0 = full re-probe every epoch).
	Strata         int
	SampleRate     float64
	BaselineProbes int
	Baseline       *verfploeter.Catchment
	Epochs         []SeriesEpoch
}

// Len returns the number of stored epochs including the baseline.
func (s *Series) Len() int { return len(s.Epochs) + 1 }

// At reconstructs the catchment as of the given epoch (0 = baseline) by
// replaying deltas — the time-travel read. Every delta block must lie in
// the baseline's index (ReadSeries and the monitor guarantee it); a
// hand-built series that breaks this gets an error.
func (s *Series) At(epoch int) (c *verfploeter.Catchment, err error) {
	if epoch < 0 || epoch > len(s.Epochs) {
		return nil, fmt.Errorf("dataset: epoch %d outside series 0..%d", epoch, len(s.Epochs))
	}
	c = s.Baseline.Clone()
	i := 0
	defer func() {
		// Reassign panics on a block outside the index or a site out of
		// range; for a replay that is malformed input, not a bug.
		if r := recover(); r != nil {
			c, err = nil, fmt.Errorf("dataset: replaying epoch %d: %v", s.Epochs[i].Epoch, r)
		}
	}()
	for ; i < epoch; i++ {
		ep := &s.Epochs[i]
		for _, d := range ep.Changed {
			c.Reassign(d.Block, int(d.Site), d.RTT)
		}
		for _, d := range ep.Added {
			c.Reassign(d.Block, int(d.Site), d.RTT)
		}
		for _, b := range ep.Removed {
			c.Delete(b)
		}
	}
	return c, nil
}

// Events flattens every epoch's event list in epoch order.
func (s *Series) Events() []Event {
	var out []Event
	for i := range s.Epochs {
		out = append(out, s.Epochs[i].Events...)
	}
	return out
}

// TotalProbes sums the baseline and every epoch's probe volume.
func (s *Series) TotalProbes() int {
	n := s.BaselineProbes
	for i := range s.Epochs {
		n += s.Epochs[i].Probes
	}
	return n
}

// WriteSeries serializes a monitoring series (format v3).
func WriteSeries(w io.Writer, s *Series) error {
	if s == nil || s.Baseline == nil {
		return fmt.Errorf("%w: nil series or baseline", ErrFormat)
	}
	if len(s.Meta.Sites) > MaxMetaSites {
		return fmt.Errorf("%w: %d metadata sites (max %d)", ErrLimit, len(s.Meta.Sites), MaxMetaSites)
	}
	zw, _ := gzip.NewWriterLevel(w, compressLevel) // errors only on an invalid level
	bw := bufio.NewWriter(zw)

	bw.Write(magic[:])
	writeU16(bw, seriesVersion)
	bw.WriteByte(kindSeries)
	writeMeta(bw, s.Meta)

	writeU32(bw, uint32(s.Strata))
	writeU64(bw, math.Float64bits(s.SampleRate))
	writeU64(bw, uint64(s.BaselineProbes))

	if err := writeCatchment(bw, s.Baseline); err != nil {
		return err
	}

	writeU32(bw, uint32(len(s.Epochs)))
	for i := range s.Epochs {
		ep := &s.Epochs[i]
		writeU32(bw, uint32(ep.Epoch))
		writeU64(bw, uint64(ep.Probes))
		writeU64(bw, uint64(ep.SampledTargets))
		writeU32(bw, uint32(ep.EscalatedStrata))
		if err := writeDeltas(bw, ep.Changed); err != nil {
			return err
		}
		if err := writeDeltas(bw, ep.Added); err != nil {
			return err
		}
		writeU32(bw, uint32(len(ep.Removed)))
		for _, b := range ep.Removed {
			writeU32(bw, uint32(b))
		}
		writeU32(bw, uint32(len(ep.Events)))
		for _, ev := range ep.Events {
			writeU32(bw, uint32(ev.Epoch))
			bw.WriteByte(byte(ev.Type))
			bw.WriteByte(byte(ev.Cause))
			writeU32(bw, uint32(int32(ev.Site)))
			writeU32(bw, uint32(ev.Blocks))
			writeU64(bw, math.Float64bits(ev.Magnitude))
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return zw.Close()
}

func writeCatchment(bw *bufio.Writer, c *verfploeter.Catchment) error {
	if c.NSite <= 0 || c.NSite > MaxSites {
		return fmt.Errorf("%w: catchment with %d sites (max %d)", ErrLimit, c.NSite, MaxSites)
	}
	writeU32(bw, uint32(c.NSite))
	blocks := c.Blocks()
	if len(blocks) > MaxEntries {
		return fmt.Errorf("%w: %d entries (max %d)", ErrLimit, len(blocks), MaxEntries)
	}
	writeU32(bw, uint32(len(blocks)))
	for _, b := range blocks {
		site, _ := c.SiteOf(b)
		rtt, _ := c.RTTOf(b)
		writeEntry(bw, b, site, rtt)
	}
	return nil
}

func writeDeltas(bw *bufio.Writer, ds []Delta) error {
	if len(ds) > MaxEntries {
		return fmt.Errorf("%w: %d deltas (max %d)", ErrLimit, len(ds), MaxEntries)
	}
	writeU32(bw, uint32(len(ds)))
	for _, d := range ds {
		writeEntry(bw, d.Block, int(d.Site), d.RTT)
	}
	return nil
}

// ReadSeries deserializes a monitoring series.
func ReadSeries(r io.Reader) (*Series, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("%w: not gzip: %v", ErrFormat, err)
	}
	defer zr.Close()
	br := bufio.NewReader(zr)

	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil || m != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	v, err := readU16(br)
	if err != nil {
		return nil, err
	}
	if v != seriesVersion {
		return nil, fmt.Errorf("%w: version %d is not a series (single runs are v%d — use Read)", ErrFormat, v, version)
	}
	kind, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if kind != kindSeries {
		return nil, fmt.Errorf("%w: unknown v3 record kind %d", ErrFormat, kind)
	}

	s := &Series{}
	if s.Meta, err = readMeta(br); err != nil {
		return nil, err
	}

	strata, err := readU32(br)
	if err != nil {
		return nil, err
	}
	s.Strata = int(strata)
	rateBits, err := readU64(br)
	if err != nil {
		return nil, err
	}
	s.SampleRate = math.Float64frombits(rateBits)
	baseProbes, err := readU64(br)
	if err != nil {
		return nil, err
	}
	s.BaselineProbes = int(baseProbes)

	nSite, n, err := readEntryCounts(br)
	if err != nil {
		return nil, err
	}
	base, err := readEntries(br, n, int(nSite))
	if err != nil {
		return nil, err
	}

	nEpochs, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if nEpochs > 1<<20 {
		return nil, fmt.Errorf("%w: %d epochs", ErrFormat, nEpochs)
	}
	for i := uint32(0); i < nEpochs; i++ {
		var ep SeriesEpoch
		epoch, err := readU32(br)
		if err != nil {
			return nil, err
		}
		ep.Epoch = int(epoch)
		probes, err := readU64(br)
		if err != nil {
			return nil, err
		}
		ep.Probes = int(probes)
		sampled, err := readU64(br)
		if err != nil {
			return nil, err
		}
		ep.SampledTargets = int(sampled)
		esc, err := readU32(br)
		if err != nil {
			return nil, err
		}
		ep.EscalatedStrata = int(esc)
		if ep.Changed, err = readDeltas(br, int(nSite)); err != nil {
			return nil, err
		}
		if ep.Added, err = readDeltas(br, int(nSite)); err != nil {
			return nil, err
		}
		nRem, err := readU32(br)
		if err != nil {
			return nil, err
		}
		if nRem > MaxEntries {
			return nil, fmt.Errorf("%w: %d removals", ErrFormat, nRem)
		}
		for j := uint32(0); j < nRem; j++ {
			blk, err := readU32(br)
			if err != nil {
				return nil, err
			}
			ep.Removed = append(ep.Removed, ipv4.Block(blk))
		}
		nEv, err := readU32(br)
		if err != nil {
			return nil, err
		}
		if nEv > 1<<20 {
			return nil, fmt.Errorf("%w: %d events", ErrFormat, nEv)
		}
		for j := uint32(0); j < nEv; j++ {
			var ev Event
			evEpoch, err := readU32(br)
			if err != nil {
				return nil, err
			}
			ev.Epoch = int(evEpoch)
			typ, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrFormat, err)
			}
			ev.Type = EventType(typ)
			cause, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrFormat, err)
			}
			ev.Cause = Cause(cause)
			site, err := readU32(br)
			if err != nil {
				return nil, err
			}
			ev.Site = int(int32(site))
			nb, err := readU32(br)
			if err != nil {
				return nil, err
			}
			ev.Blocks = int(nb)
			magBits, err := readU64(br)
			if err != nil {
				return nil, err
			}
			ev.Magnitude = math.Float64frombits(magBits)
			ep.Events = append(ep.Events, ev)
		}
		s.Epochs = append(s.Epochs, ep)
	}
	if err := expectEOF(br); err != nil {
		return nil, err
	}
	// The baseline's index also covers every block a later epoch adds or
	// changes, so At replays within it.
	var touched []ipv4.Block
	for i := range s.Epochs {
		for _, d := range s.Epochs[i].Changed {
			touched = append(touched, d.Block)
		}
		for _, d := range s.Epochs[i].Added {
			touched = append(touched, d.Block)
		}
	}
	s.Baseline = catchmentOf(int(nSite), base, touched)
	return s, nil
}

// readEntries parses n v4-layout entries — the series baseline, or one
// delta list — through the same checked decoder as a v4 dataset.
func readEntries(br *bufio.Reader, n uint32, nSite int) ([]Entry, error) {
	out := make([]Entry, 0, min(int(n), entryPrealloc))
	for i := uint32(0); i < n; i++ {
		e, err := readEntry(br, version, nSite)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

func readDeltas(br *bufio.Reader, nSite int) ([]Delta, error) {
	n, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if n > MaxEntries {
		return nil, fmt.Errorf("%w: %d deltas", ErrFormat, n)
	}
	entries, err := readEntries(br, n, nSite)
	if err != nil {
		return nil, err
	}
	out := make([]Delta, len(entries))
	for i, e := range entries {
		out[i] = Delta{Block: e.Block, Site: int16(e.Site), RTT: e.RTT}
	}
	return out, nil
}

// WriteSeriesFile saves a series to a file.
func WriteSeriesFile(path string, s *Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteSeries(f, s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadSeriesFile loads a series from a file.
func ReadSeriesFile(path string) (*Series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSeries(f)
}
