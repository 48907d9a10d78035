package store

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"indice/internal/table"
)

// Record is one certificate as loosely-typed attribute/value pairs — the
// shape a JSON ingestion body decodes to. Numeric attributes accept JSON
// numbers (or numeric strings); categorical attributes accept strings.
// Attributes missing from a record become invalid cells; attributes not
// in the store schema reject the record.
type Record map[string]any

// getRecScratch returns pooled per-batch scratch (an empty projection
// table over the store schema plus a cell buffer); putRecScratch recycles
// it. Safe because AppendTable copies every value into shard storage —
// nothing the scratch owns outlives the append call.
func (s *Store) getRecScratch() (*recScratch, error) {
	if sc, ok := s.recPool.Get().(*recScratch); ok {
		sc.batch.Reset()
		return sc, nil
	}
	batch, err := table.NewWithSchema(s.schema)
	if err != nil {
		return nil, err
	}
	return &recScratch{batch: batch, cells: make([]table.Cell, len(s.schema))}, nil
}

func (s *Store) putRecScratch(sc *recScratch) {
	sc.batch.Reset()
	s.recPool.Put(sc)
}

// AppendRecords projects records onto the store schema and ingests them
// as one atomic batch. Records that fail projection (unknown attribute,
// uncoercible value) are rejected individually; the remainder proceeds.
func (s *Store) AppendRecords(recs []Record) (IngestResult, error) {
	var res IngestResult
	if len(recs) == 0 {
		return res, nil
	}
	sc, err := s.getRecScratch()
	if err != nil {
		return res, err
	}
	defer s.putRecScratch(sc)
	pos := s.colPos
	batch := sc.batch
	cells := sc.cells
	for ri, rec := range recs {
		for i := range cells {
			cells[i] = table.Cell{}
		}
		bad := ""
		for attr, raw := range rec {
			i, ok := pos[attr]
			if !ok {
				bad = fmt.Sprintf("record %d: unknown attribute %q", ri, attr)
				break
			}
			cell, err := coerce(s.schema[i].Type, raw)
			if err != nil {
				bad = fmt.Sprintf("record %d: attribute %q: %v", ri, attr, err)
				break
			}
			cells[i] = cell
		}
		if bad != "" {
			res.Rejected++
			if len(res.Issues) < maxReportedIssues {
				res.Issues = append(res.Issues, bad)
			}
			continue
		}
		if err := batch.AppendRow(cells); err != nil {
			return res, err
		}
	}
	s.rejected.Add(uint64(res.Rejected))
	sub, err := s.AppendTable(batch)
	if err != nil {
		return res, err
	}
	res.Accepted = sub.Accepted
	res.Rejected += sub.Rejected
	res.Issues = append(res.Issues, sub.Issues...)
	if len(res.Issues) > maxReportedIssues {
		res.Issues = res.Issues[:maxReportedIssues]
	}
	return res, nil
}

// coerce converts one loosely-typed value into a cell of the target type.
// nil stays an invalid cell.
func coerce(typ table.Type, raw any) (table.Cell, error) {
	if raw == nil {
		return table.Cell{}, nil
	}
	if typ == table.Float64 {
		switch v := raw.(type) {
		case float64:
			return table.Cell{Float: v, Valid: true}, nil
		case float32:
			return table.Cell{Float: float64(v), Valid: true}, nil
		case int:
			return table.Cell{Float: float64(v), Valid: true}, nil
		case int64:
			return table.Cell{Float: float64(v), Valid: true}, nil
		case json.Number:
			f, err := v.Float64()
			if err != nil {
				return table.Cell{}, fmt.Errorf("bad number %q", v.String())
			}
			return table.Cell{Float: f, Valid: true}, nil
		case string:
			if v == "" {
				return table.Cell{}, nil
			}
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return table.Cell{}, fmt.Errorf("bad number %q", v)
			}
			return table.Cell{Float: f, Valid: true}, nil
		default:
			return table.Cell{}, fmt.Errorf("cannot use %T as number", raw)
		}
	}
	switch v := raw.(type) {
	case string:
		return table.Cell{Str: v, Valid: v != ""}, nil
	default:
		return table.Cell{}, fmt.Errorf("cannot use %T as string", raw)
	}
}

// AppendCSV ingests a typed-CSV batch (the table.WriteCSV format).
func (s *Store) AppendCSV(r io.Reader) (IngestResult, error) {
	t, err := table.ReadCSV(r)
	if err != nil {
		return IngestResult{}, fmt.Errorf("store: csv batch: %w", err)
	}
	return s.AppendTable(t)
}

// AppendBinary ingests a binary columnar batch (the table.WriteBinary
// format) — the fast path bulk loaders use.
func (s *Store) AppendBinary(r io.Reader) (IngestResult, error) {
	t, err := table.ReadBinary(r)
	if err != nil {
		return IngestResult{}, fmt.Errorf("store: binary batch: %w", err)
	}
	return s.AppendTable(t)
}
