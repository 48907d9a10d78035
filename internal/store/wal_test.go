package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"indice/internal/table"
)

// crcFrame wraps a payload in the length+CRC frame, as append does.
func crcFrame(t testing.TB, payload []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := writeCRCFrame(&out, payload); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// walPayload encodes one record payload, as append does.
func walPayload(t testing.TB, seq uint64, parts []AdoptPart) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeWALRecord(&buf, seq, parts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encPart is a routed part as AppendTable hands it on: encoded once.
func encPart(shard int, tab *table.Table) AdoptPart {
	return AdoptPart{Shard: shard, Enc: table.Encode(tab)}
}

// miniParts builds one routed two-part record over the mini schema.
func miniParts(t testing.TB, base int) []AdoptPart {
	t.Helper()
	return []AdoptPart{
		encPart(0, miniBatch(t, base, 3, "w0")),
		encPart(1, miniBatch(t, base+100, 2, "w1")),
	}
}

// encodedBytes is a table's encoded binary form. Encoding is canonical:
// two tables hold the same cells, bit for bit, exactly when these bytes
// are equal.
func encodedBytes(tab *table.Table) []byte {
	var buf bytes.Buffer
	_ = table.Encode(tab).WriteBinary(&buf) // writes to a bytes.Buffer cannot fail
	return buf.Bytes()
}

// decodePage materializes a row page's runs as a table with sn's schema.
func decodePage(t testing.TB, sn *Snapshot, page []PageRun) *table.Table {
	t.Helper()
	out, err := table.NewWithSchema(sn.Schema())
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range page {
		if err := run.Enc.TakeAppend(out, run.Rows); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// tablesEqualBinary compares two tables via their encoded binary form.
func tablesEqualBinary(t testing.TB, a, b *table.Table) bool {
	t.Helper()
	return bytes.Equal(encodedBytes(a), encodedBytes(b))
}

func TestWALRecordRoundTrip(t *testing.T) {
	parts := miniParts(t, 0)
	rec, err := decodeWALPayload(walPayload(t, 42, parts), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rec.seq != 42 || len(rec.parts) != 2 {
		t.Fatalf("decoded seq=%d parts=%d", rec.seq, len(rec.parts))
	}
	for i, p := range rec.parts {
		if p.Shard != parts[i].Shard {
			t.Fatalf("part %d shard = %d, want %d", i, p.Shard, parts[i].Shard)
		}
		if !tablesEqualBinary(t, p.Enc.Decode(), parts[i].Enc.Decode()) {
			t.Fatalf("part %d table differs after round trip", i)
		}
	}
}

func TestScanWALStopsAtTornTail(t *testing.T) {
	f1 := crcFrame(t, walPayload(t, 1, miniParts(t, 0)))
	f2 := crcFrame(t, walPayload(t, 2, miniParts(t, 10)))
	full := append(append([]byte(nil), f1...), f2...)

	cases := []struct {
		name     string
		log      []byte
		wantSeq  uint64
		wantSeen int
		clean    bool
	}{
		{"empty", nil, 0, 0, true},
		{"two records", full, 2, 2, true},
		{"torn payload", full[:len(f1)+len(f2)-3], 1, 1, false},
		{"torn header", full[:len(f1)+5], 1, 1, false},
		{"first frame only", f1, 1, 1, true},
		{"garbage", []byte("not a wal file at all"), 0, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seen := 0
			last, _, clean, err := scanWAL(bytes.NewReader(tc.log), 2, func(rec *walRecord) error {
				seen++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if last != tc.wantSeq || seen != tc.wantSeen || clean != tc.clean {
				t.Fatalf("scan = (seq %d, seen %d, clean %v), want (%d, %d, %v)",
					last, seen, clean, tc.wantSeq, tc.wantSeen, tc.clean)
			}
		})
	}
}

func TestScanWALRejectsCorruptFrames(t *testing.T) {
	good := crcFrame(t, walPayload(t, 1, miniParts(t, 0)))

	// Flipped CRC: record is dropped, scan stops.
	flipped := append([]byte(nil), good...)
	flipped[4] ^= 0xff
	if last, _, clean, _ := scanWAL(bytes.NewReader(flipped), 2, nil); last != 0 || clean {
		t.Fatalf("flipped CRC accepted: seq=%d clean=%v", last, clean)
	}

	// Flipped payload byte: CRC catches it.
	mangled := append([]byte(nil), good...)
	mangled[12] ^= 0x01
	if last, _, _, _ := scanWAL(bytes.NewReader(mangled), 2, nil); last != 0 {
		t.Fatalf("mangled payload accepted: seq=%d", last)
	}

	// Implausible claimed length: rejected without a giant allocation.
	var huge bytes.Buffer
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(maxWALPayload+1))
	huge.Write(hdr[:])
	huge.WriteString("xxxx")
	if last, _, clean, _ := scanWAL(&huge, 2, nil); last != 0 || clean {
		t.Fatal("oversized frame accepted")
	}

	// Valid CRC over an undecodable payload (unknown record kind): the
	// record was written whole, so it is no torn tail — the scan keeps the
	// records before it and fails naming the kind.
	both := append(append([]byte(nil), good...), crcFrame(t, []byte{99, 1, 2, 3})...)
	last, _, _, err := scanWAL(bytes.NewReader(both), 2, nil)
	if err == nil || last != 1 || !strings.Contains(err.Error(), "kind 99") {
		t.Fatalf("bad-kind record: seq=%d err=%v, want seq 1 and an error naming kind 99", last, err)
	}
}

func TestWALFileNames(t *testing.T) {
	name := walFileName(0x2a)
	if name != "wal-000000000000002a.log" {
		t.Fatalf("walFileName = %q", name)
	}
	seq, ok := parseWALFileName(name)
	if !ok || seq != 0x2a {
		t.Fatalf("parse = (%d, %v)", seq, ok)
	}
	for _, bad := range []string{"MANIFEST", "wal-.log", "segments"} {
		if _, ok := parseWALFileName(bad); ok {
			t.Fatalf("parsed %q as a wal file", bad)
		}
	}
}

func TestParseFsyncMode(t *testing.T) {
	cases := map[string]FsyncMode{
		"always": FsyncAlways, "interval": FsyncInterval, "off": FsyncOff, "never": FsyncOff,
	}
	for in, want := range cases {
		got, err := ParseFsyncMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFsyncMode("sometimes"); err == nil {
		t.Fatal("want error for unknown mode")
	}
	if FsyncAlways.String() != "always" || FsyncInterval.String() != "interval" || FsyncOff.String() != "off" {
		t.Fatal("FsyncMode.String mismatch")
	}
}

// oldWALRecord hand-builds a kind-1 record payload: a u16 part count and
// v1 table bytes per part, the layout logs had before parts were encoded
// tables.
func oldWALRecord(seq uint64) []byte {
	v1 := []byte("INDT\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00") // version 1, no rows, no columns
	p := []byte{1}
	p = binary.LittleEndian.AppendUint64(p, seq)
	p = binary.LittleEndian.AppendUint16(p, 1)
	p = binary.LittleEndian.AppendUint32(p, 0)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(v1)))
	return append(p, v1...)
}

// crcValidFrameAt reports whether b starts with a whole frame whose CRC
// holds.
func crcValidFrameAt(b []byte) bool {
	if len(b) < 8 {
		return false
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n == 0 || n > maxWALPayload || uint64(len(b)-8) < uint64(n) {
		return false
	}
	return crc32.ChecksumIEEE(b[8:8+n]) == binary.LittleEndian.Uint32(b[4:8])
}

// FuzzWALReplay feeds arbitrary bytes to the WAL scanner and to a full
// store recovery. Whatever the input, recovery must neither panic nor
// admit a corrupt batch. Either it comes up holding exactly the rows of
// the valid prefix — contiguous seqs from 1, matching schema — having cut
// off at most a torn tail, never a CRC-valid frame; or it refuses with an
// error, exactly when the scanner meets a CRC-valid record that does not
// decode, and leaves the log byte for byte as it was.
func FuzzWALReplay(f *testing.F) {
	seedParts := func(base int) []AdoptPart {
		return []AdoptPart{encPart(0, miniBatch(f, base, 3, "w0"))}
	}
	var valid bytes.Buffer
	valid.Write(crcFrame(f, walPayload(f, 1, seedParts(0))))
	valid.Write(crcFrame(f, walPayload(f, 2, seedParts(10))))
	f.Add(append([]byte(nil), valid.Bytes()...))
	f.Add(valid.Bytes()[:valid.Len()-5]) // torn tail
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	mut := append([]byte(nil), valid.Bytes()...)
	mut[9] ^= 0x40 // flip a payload bit under a stale CRC
	f.Add(mut)
	f.Add(append(append([]byte(nil), valid.Bytes()...), crcFrame(f, oldWALRecord(3))...))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The scanner: must terminate without panicking, yielding only
		// records that fully decoded.
		_, _, _, scanErr := scanWAL(bytes.NewReader(data), 1, func(rec *walRecord) error { return nil })

		// Full recovery over the same bytes as a wal file.
		dir := t.TempDir()
		path := join(dir, walFileName(1))
		fh, err := OSFS{}.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		fh.Write(data)
		fh.Close()
		cfg := miniConfig(1)
		st, oerr := Open(cfg, Durability{Dir: dir, Fsync: FsyncOff})
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if oerr != nil {
			if scanErr == nil {
				t.Fatalf("recovery refused a log the scanner accepts: %v", oerr)
			}
			if !bytes.Equal(after, data) {
				t.Fatal("a refused recovery rewrote the log")
			}
			return
		}
		defer st.Close()
		if scanErr != nil {
			t.Fatalf("recovery accepted a log holding a CRC-valid record that does not decode: %v", scanErr)
		}
		if !bytes.HasPrefix(data, after) {
			t.Fatal("recovery rewrote the log instead of truncating it")
		}
		if crcValidFrameAt(data[len(after):]) {
			t.Fatalf("recovery truncated a CRC-valid frame at byte %d", len(after))
		}
		want := 0
		next := uint64(1)
		scanWAL(bytes.NewReader(data), 1, func(rec *walRecord) error {
			if next == 0 || rec.seq != next {
				next = 0
				return nil
			}
			for _, p := range rec.parts {
				if !schemaEqual(p.Enc.Schema(), cfg.Schema) {
					next = 0
					return nil
				}
			}
			for _, p := range rec.parts {
				want += p.Enc.NumRows()
			}
			next++
			return nil
		})
		if got := st.Rows(); got != want {
			t.Fatalf("recovered %d rows, valid prefix has %d", got, want)
		}
	})
}
