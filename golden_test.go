package indice

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"indice/internal/core"
	"indice/internal/geocode"
	"indice/internal/query"
	"indice/internal/scaleout"
	"indice/internal/server"
	"indice/internal/store"
	"indice/internal/synth"
	"indice/internal/table"
)

// goldenDigests are SHA-256 digests of everything the node writes to disk,
// to the wire and to clients for one seeded corpus, recorded at commit
// 12b3b27 (the last one whose string columns were []string). A change to
// how tables are held in memory must reproduce every one of them; a change
// that means to alter a format or an answer re-records the lines it moves
// (run the test: it prints the table it computed) and says so; the wal
// line dates from WAL parts becoming encoded tables, and the two
// serving-table lines from the serving table keeping only the columns its
// readers name: each is the digest of the earlier full-width table with
// its other 81 columns selected away. The six lines that carry encoded
// tables (checkpoint, encoded/*, replication/*, wal) date from decimal
// float columns packing as scaled codes; the test proves the re-recorded
// encoded bytes hold the same corpus by decoding them back to the CSV the
// csv/* lines pin. The fourteen query lines whose answers carry means and
// standard deviations date from exact aggregates: each body is the one
// before with only those numbers replaced, each by the correctly rounded
// value over the matched rows.
var goldenDigests = map[string]string{
	"analysis/cold":                      "73aee87c4f1a3403221547d2f730f632ce731b51e9c1734ab8d818c8391dcf87",
	"analysis/incremental":               "385588dc07209e837b2333dd53451d6974a8330ab4ca02c1097757fa249774a2",
	"checkpoint":                         "15cd2671b0779eb43d9448ea75ab0c885c6d5c1856694264eac5694b0b590560",
	"csv/clean":                          "05616105b357db1da097ae7d9719916f662fda873b794478dda1ebda74b72c10",
	"csv/dirty":                          "3ed65ed5b1f03cf7742a4cd7323da8f61a5698e6d7055b6cf035f6f52b140a0e",
	"dashboard/citizen/e1":               "6dfe304cae9c44ff1e586f83ac89a9c328187e4a9f3fce99688ae42561ac3dd4",
	"dashboard/citizen/e2":               "90afeac04f5fce17f3b075dd06716000e25e81dfdbc7b4964d4fe9f179dc2654",
	"dashboard/energy-scientist/e1":      "e85a0b31966050eeb5ea96fc39f3a64e693d563c83c4a6a2bec16a804cd0cdaa",
	"dashboard/energy-scientist/e2":      "4590b23e880f3db7008966ff1e6faef7d8d656dd4f1360bf74a6f26045874480",
	"dashboard/public-administration/e1": "05c9eea939a60fb1cb186201dd7c882701127bd9d8325d638008dcd8db1fc78b",
	"dashboard/public-administration/e2": "3311e13db4961f226ceefb021bdfd0911b08c08e5cc618dca159ccc788ace93f",
	"encoded/clean":                      "d45048d6ad9e2bea63be2f9a6e54c008c83a4a5c115e6ed732b8861fec5b32cb",
	"encoded/dirty":                      "8a9f0d9bf59c1ebaed7a37cc524965ee1ef880223cc23f11ceedc41c2a642151",
	"query/grouped-indexed/e1":           "909022849b8b653de3d382e1551549eb94c1dbe1183c3a24b5a3217773136d32",
	"query/grouped-indexed/e2":           "ccb07e423b68804d01e66b91a9b0fc20313ee8e78cafc07c32f350f2f243f4e1",
	"query/grouped-masked/e1":            "17e602b15d2a1b1e45dd8571b6b73ea52a5072509890c6853bdbbb8e3449231b",
	"query/grouped-masked/e2":            "d846415de36e068503240f40bd854e41a478a0481d416a5dc3445b0c03432339",
	"query/not-or-page/e1":               "5c073531a7eac2bc41cfbc213164bde526aa3b61420cb8031e885bdd2e1f9dd4",
	"query/not-or-page/e2":               "87937fa2e3bdbbe58129bf6e6c6a6b6e4d71373d685085ab35f196e33bec338b",
	"query/page-deep/e1":                 "0903fcb7f81906807ea3f883c1a81eab23bbdb3a9904f6e8067385f0b51a0792",
	"query/page-deep/e2":                 "c673f59c4e1a294ba23c20d0c273a51d77751f81cd614428a0c4b4ba7db7a783",
	"query/page-indexed/e1":              "3106a632a2883334bd9c3b288cf0dcd5bb33fd5d140aaf32b911fa2b6faeb885",
	"query/page-indexed/e2":              "bd1e3e307517747e2db10cdb7957919f3a2c282b4eb141f0a363a82f2423698c",
	"query/page-select-all/e1":           "9b469e71474456e9c818f2bc78f873d4286b19ed211fc6db52b30de26b81a625",
	"query/page-select-all/e2":           "e5db595f9ef549610d1c60b848e0f70fbbc1f2f156fee91a463c1c1a1231833e",
	"query/preset-by/e1":                 "58e0f5426dd54e4bfe5805dbc3d56e7c86bb8104e5d252825126197e6aad7918",
	"query/preset-by/e2":                 "5586f522739d8a926f4aa930b2882b51ac0072bcfefb940bd24f05674448ff58",
	"query/stats-ungrouped/e1":           "9aba95be10e10f621d06a2504af8ca28f29b297764e62a0d2f54f71caa9fb752",
	"query/stats-ungrouped/e2":           "cd19acd82766e67c6b10343bc7a861b413f6e54b0636508db29258a951d7bb9f",
	"replication/delta":                  "f1d27b54b5da356d8673fdda2b46712f56c9d9e66a10a83331c7c57163c26b6c",
	"replication/full":                   "12dad35c50501a98dc15836a9118a49bbe94c9d9515100dc88471d4064f7a9ec",
	"report/cold":                        "93058bd07d9da97e4213485cfe6eb43b71d2f9311b77e3c8a03172be9db971fb",
	"report/incremental":                 "4fe63f7fe7f109f67e4bf35413a656e50668eccc9c3bd06da9173e79dd84928a",
	"serving-table/cold":                 "c5f5c3c36d139669409fabbc8a227348baf7f5dbff15bb508813a0cbce99d81d",
	"serving-table/incremental":          "41291a6a2852a36b8311cdaab56ae5d4728b24b953fa45f08caa59966a3cea60",
	"wal":                                "89fbc3c9f7c31005739ebb3dca2c318e707b67a4a9a68755a52171e83bd6f485",
}

// goldenQueries are the /api/query shapes digested at both epochs: stats
// only and row pages, grouped and not, each planner road (index postings,
// masked scan, a not/or tree the pushdown cannot split, select-all), over a
// store that holds sealed segments and tail parts side by side.
var goldenQueries = []struct{ name, rawQuery string }{
	{"stats-ungrouped", "attrs=eph,heat_surface&q=" + url.QueryEscape("eph in [40, 260]")},
	{"grouped-indexed", "attrs=eph&by=district&q=" + url.QueryEscape("energy_class in {C, D, E}")},
	{"grouped-masked", "attrs=eph&by=energy_class&q=" + url.QueryEscape("eph in [60, 180] and u_windows >= 2")},
	{"page-indexed", "attrs=eph&limit=25&q=" + url.QueryEscape("energy_class in {C, D} and eph in [50, 250]")},
	{"page-deep", "attrs=eph&by=heating_type&limit=60&offset=1190&q=" + url.QueryEscape("eph >= 30")},
	{"not-or-page", "attrs=eph&by=district&limit=10&offset=3&q=" + url.QueryEscape("not (energy_class in {A, B}) or eph >= 300")},
	{"page-select-all", "limit=60&offset=720"},
	{"preset-by", "preset=pa&by=neighbourhood"},
}

// TestGoldenDigests holds formats and answers to the bytes the parent of
// the dictionary-coded columns produced.
func TestGoldenDigests(t *testing.T) {
	const rows, baseRows, batchRows = 2900, 2500, 500
	ccfg := synth.DefaultCityConfig()
	ccfg.Streets, ccfg.CivicsPerStreet = 60, 12
	city, err := synth.GenerateCity(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := synth.DefaultConfig()
	gcfg.Certificates = rows
	ds, err := synth.Generate(gcfg, city)
	if err != nil {
		t.Fatal(err)
	}
	dirty, _, err := synth.Corrupt(ds.Table, synth.DefaultCorruptionConfig())
	if err != nil {
		t.Fatal(err)
	}

	got := map[string]string{}
	digest := func(name string, data []byte) {
		sum := sha256.Sum256(data)
		got[name] = hex.EncodeToString(sum[:])
	}

	// Table codecs.
	for name, tab := range map[string]*table.Table{"clean": ds.Table, "dirty": dirty} {
		var csv, enc bytes.Buffer
		if err := tab.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if err := table.Encode(tab).WriteBinary(&enc); err != nil {
			t.Fatal(err)
		}
		digest("csv/"+name, csv.Bytes())
		digest("encoded/"+name, enc.Bytes())
		back, err := table.ReadEncoded(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var decoded bytes.Buffer
		if err := back.Decode().WriteCSV(&decoded); err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(decoded.Bytes()); hex.EncodeToString(sum[:]) != goldenDigests["csv/"+name] {
			t.Errorf("encoded/%s decoded and written as CSV does not digest to csv/%s", name, name)
		}
	}

	// The corpus as the ingest endpoints receive it: typed-CSV and binary
	// bodies in turn, the last one a delta after the first publication.
	type body struct {
		data   []byte
		binary bool
	}
	var bodies []body
	for lo := 0; lo < rows; {
		hi := min(lo+batchRows, rows)
		if lo < baseRows {
			hi = min(hi, baseRows)
		}
		part, err := dirty.View(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		b := body{binary: len(bodies)%2 == 1}
		if b.binary {
			err = table.Encode(part).WriteBinary(&buf)
		} else {
			err = part.WriteCSV(&buf)
		}
		if err != nil {
			t.Fatal(err)
		}
		b.data = buf.Bytes()
		bodies = append(bodies, b)
		lo = hi
	}
	ingest := func(st *store.Store, b body) {
		t.Helper()
		var res store.IngestResult
		var err error
		if b.binary {
			res, err = st.AppendBinary(bytes.NewReader(b.data))
		} else {
			res, err = st.AppendCSV(bytes.NewReader(b.data))
		}
		if err != nil || res.Rejected != 0 {
			t.Fatalf("ingest: %+v, %v", res, err)
		}
	}
	scfg := store.DefaultConfig()
	scfg.Shards, scfg.SegmentRows = 2, 600
	const baseBodies = baseRows / batchRows

	// Durable node: the WAL as written, then the checkpoint that seals it.
	dir := t.TempDir()
	dst, err := store.Open(scfg, store.Durability{Dir: dir, MaxWALBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bodies {
		ingest(dst, b)
	}
	digest("wal", readFiles(t, dir, "wal-*.log"))
	if _, err := dst.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	digest("checkpoint", append(readFiles(t, dir, "MANIFEST"), readFiles(t, dir, "segments/*")...))
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}

	// Serving node: cold refresh over the base, incremental over the delta.
	st, err := store.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := geocode.NewStreetMap(city.ReferenceEntries())
	if err != nil {
		t.Fatal(err)
	}
	live, err := core.NewLive(st, city.Hierarchy, core.LiveConfig{
		Options:     core.Options{StreetMap: sm, Geocoder: geocode.NewMockGeocoder(sm, 2000)},
		Incremental: core.IncrementalConfig{DriftThreshold: math.Inf(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewLive(live)
	if err != nil {
		t.Fatal(err)
	}
	leader := scaleout.NewLeader(st)
	get := func(h http.HandlerFunc, target string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", target, rec.Code, rec.Body)
		}
		return rec
	}
	publication := func(epoch string, incremental bool) {
		t.Helper()
		pub, err := live.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		if pub.Incremental != incremental {
			t.Fatalf("%s refresh: incremental=%v (%s)", epoch, pub.Incremental, live.LastIncrementalError())
		}
		name := map[bool]string{false: "cold", true: "incremental"}[incremental]
		var an bytes.Buffer
		dumpValue(&an, reflect.ValueOf(pub.Analysis))
		digest("analysis/"+name, an.Bytes())
		digest("report/"+name, []byte(pub.Engine.Report(pub.Report, pub.Analysis)))
		var csv bytes.Buffer
		if err := pub.Engine.Decode().WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		digest("serving-table/"+name, csv.Bytes())
		for _, q := range goldenQueries {
			digest("query/"+q.name+"/"+epoch, get(srv.ServeHTTP, "/api/query?"+q.rawQuery).Body.Bytes())
		}
		for _, s := range query.Stakeholders() {
			digest("dashboard/"+string(s)+"/"+epoch, get(srv.ServeHTTP, "/dashboard/"+string(s)).Body.Bytes())
		}
	}
	for _, b := range bodies[:baseBodies] {
		ingest(st, b)
	}
	publication("e1", false)
	full := get(leader.ServeSegments, "/replicate/segments")
	digest("replication/full", full.Body.Bytes())
	for _, b := range bodies[baseBodies:] {
		ingest(st, b)
	}
	publication("e2", true)
	since, err := strconv.ParseUint(full.Header().Get(scaleout.HeaderEpoch), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	digest("replication/delta", get(leader.ServeDelta, fmt.Sprintf("/replicate/delta?since=%d", since)).Body.Bytes())

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := len(got) != len(goldenDigests)
	for _, name := range names {
		if got[name] != goldenDigests[name] {
			t.Errorf("%s: digest %s, recorded %s", name, got[name], goldenDigests[name])
			failed = true
		}
	}
	if failed {
		var table bytes.Buffer
		for _, name := range names {
			fmt.Fprintf(&table, "\t%q: %q,\n", name, got[name])
		}
		t.Fatalf("%d digests computed, %d recorded; computed table:\n%s", len(got), len(goldenDigests), table.Bytes())
	}
}

// readFiles returns the concatenated contents of the files matching
// pattern under dir, each preceded by its name, in name order.
func readFiles(t *testing.T, dir, pattern string) []byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no file matches %s under the data directory (%v)", pattern, err)
	}
	sort.Strings(paths)
	var out []byte
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(dir, p)
		out = append(out, filepath.ToSlash(rel)...)
		out = append(out, 0)
		out = append(out, data...)
	}
	return out
}

// dumpValue writes v's content — through pointers, with map keys sorted
// and floats as their bits, so NaN payloads and ±Inf count — in a form
// that depends on nothing but the values.
func dumpValue(w *bytes.Buffer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			w.WriteString("nil;")
			return
		}
		dumpValue(w, v.Elem())
	case reflect.Struct:
		w.WriteString(v.Type().String() + "{")
		for i := 0; i < v.NumField(); i++ {
			w.WriteString(v.Type().Field(i).Name + ":")
			dumpValue(w, v.Field(i))
		}
		w.WriteString("}")
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(w, "[%d:", v.Len())
		for i := 0; i < v.Len(); i++ {
			dumpValue(w, v.Index(i))
		}
		w.WriteString("]")
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		fmt.Fprintf(w, "map[%d:", len(keys))
		for _, k := range keys {
			fmt.Fprintf(w, "%v=", k)
			dumpValue(w, v.MapIndex(k))
		}
		w.WriteString("]")
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(w, "%016x;", math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(w, "%d;", v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fmt.Fprintf(w, "%d;", v.Uint())
	case reflect.Bool:
		fmt.Fprintf(w, "%t;", v.Bool())
	case reflect.String:
		fmt.Fprintf(w, "%q;", v.String())
	default:
		panic("golden: cannot dump a " + v.Kind().String())
	}
}
