package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The codec is byte-stable: for any parseable input, parse → encode →
// parse → encode yields the same bytes as the first encode. Floats are
// rendered with strconv's shortest round-trippable form, rows in channel
// order, so an encoded trace is a canonical artifact safe to golden-test
// and to diff across runs. FuzzParseTraceCSV/JSON enforce the property.

// maxTraceCells caps samples × channels so a malformed or hostile input
// cannot allocate unbounded memory during parsing.
const maxTraceCells = 1 << 24

// ParseCSV parses the trace CSV schema (EXPERIMENTS.md "Trace CSV
// schema"): a header line `time_s,ch0,ch1,…` followed by one row per
// sample, first column the time in seconds, remaining columns per-channel
// arrival rates in users/s. Header names are not interpreted — only the
// column count matters. The parsed trace is validated.
func ParseCSV(data []byte) (*Trace, error) {
	lines := strings.Split(string(data), "\n")
	// Tolerate trailing newline(s).
	for len(lines) > 0 && strings.TrimSpace(lines[len(lines)-1]) == "" {
		lines = lines[:len(lines)-1]
	}
	if len(lines) < 2 {
		return nil, fmt.Errorf("trace: CSV needs a header and at least one sample row")
	}
	channels := strings.Count(lines[0], ",")
	if channels < 1 {
		return nil, fmt.Errorf("trace: CSV header has no channel columns")
	}
	samples := len(lines) - 1
	if samples*channels > maxTraceCells {
		return nil, fmt.Errorf("trace: CSV too large (%d samples × %d channels)", samples, channels)
	}
	tr := &Trace{
		Times: make([]float64, samples),
		Rates: make([][]float64, channels),
	}
	for c := range tr.Rates {
		tr.Rates[c] = make([]float64, samples)
	}
	rates := make([]float64, channels)
	for i, line := range lines[1:] {
		t, err := ParseRow(line, rates)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: %w", i+1, err)
		}
		tr.Times[i] = t
		for c, r := range rates {
			tr.Rates[c][i] = r
		}
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// ErrBadTime marks a row whose time field is not a number — for a line
// protocol, the sign of a header row.
var ErrBadTime = errors.New("bad time")

// ParseRow parses one sample row of the CSV schema, "time_s,rate0,rate1,…",
// into its time and rates: rates must hold one entry per channel, and the
// row must carry exactly that many rate columns. Fields may be padded with
// spaces. The time is parsed first, so a header row fails with ErrBadTime
// whatever its column count. The values are not validated.
func ParseRow(line string, rates []float64) (float64, error) {
	fields := strings.Split(line, ",")
	t, err := strconv.ParseFloat(strings.TrimSpace(fields[0]), 64)
	if err != nil {
		return 0, fmt.Errorf("%w %q", ErrBadTime, fields[0])
	}
	if len(fields) != len(rates)+1 {
		return 0, fmt.Errorf("%d columns, want %d", len(fields), len(rates)+1)
	}
	for c, f := range fields[1:] {
		if rates[c], err = strconv.ParseFloat(strings.TrimSpace(f), 64); err != nil {
			return 0, fmt.Errorf("bad rate %q", f)
		}
	}
	return t, nil
}

// EncodeCSV renders the trace in the canonical CSV schema. The trace must
// be valid; EncodeCSV panics on rows shorter than the time grid (an
// invariant Validate enforces).
func EncodeCSV(tr *Trace) []byte {
	var buf bytes.Buffer
	buf.WriteString("time_s")
	for c := range tr.Rates {
		fmt.Fprintf(&buf, ",ch%d", c)
	}
	buf.WriteByte('\n')
	for i, t := range tr.Times {
		buf.WriteString(strconv.FormatFloat(t, 'g', -1, 64))
		for c := range tr.Rates {
			buf.WriteByte(',')
			buf.WriteString(strconv.FormatFloat(tr.Rates[c][i], 'g', -1, 64))
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// ParseJSON parses the JSON schema {"times":[…],"rates":[[…],…]} and
// validates the result.
func ParseJSON(data []byte) (*Trace, error) {
	var tr Trace
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&tr); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if len(tr.Times)*len(tr.Rates) > maxTraceCells {
		return nil, fmt.Errorf("trace: JSON too large (%d samples × %d channels)", len(tr.Times), len(tr.Rates))
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return &tr, nil
}

// EncodeJSON renders the trace as canonical single-line JSON with a
// trailing newline.
func EncodeJSON(tr *Trace) ([]byte, error) {
	out, err := json.Marshal(tr)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return append(out, '\n'), nil
}

// ReadFile loads a trace from a .csv or .json file, dispatching on the
// extension.
func ReadFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	switch ext := strings.ToLower(filepath.Ext(path)); ext {
	case ".csv":
		return ParseCSV(data)
	case ".json":
		return ParseJSON(data)
	default:
		return nil, fmt.Errorf("trace: unsupported trace extension %q (want .csv or .json)", ext)
	}
}

// WriteFile writes a trace to a .csv or .json file, dispatching on the
// extension.
func WriteFile(path string, tr *Trace) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	var data []byte
	switch ext := strings.ToLower(filepath.Ext(path)); ext {
	case ".csv":
		data = EncodeCSV(tr)
	case ".json":
		var err error
		data, err = EncodeJSON(tr)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("trace: unsupported trace extension %q (want .csv or .json)", ext)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
