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
// its other 81 columns selected away.
var goldenDigests = map[string]string{
	"analysis/cold":                      "73aee87c4f1a3403221547d2f730f632ce731b51e9c1734ab8d818c8391dcf87",
	"analysis/incremental":               "385588dc07209e837b2333dd53451d6974a8330ab4ca02c1097757fa249774a2",
	"checkpoint":                         "7f301f1810ca90869d554859d797bbbb70d64cd7b79c04ce986a3075e495a27f",
	"csv/clean":                          "05616105b357db1da097ae7d9719916f662fda873b794478dda1ebda74b72c10",
	"csv/dirty":                          "3ed65ed5b1f03cf7742a4cd7323da8f61a5698e6d7055b6cf035f6f52b140a0e",
	"dashboard/citizen/e1":               "6dfe304cae9c44ff1e586f83ac89a9c328187e4a9f3fce99688ae42561ac3dd4",
	"dashboard/citizen/e2":               "90afeac04f5fce17f3b075dd06716000e25e81dfdbc7b4964d4fe9f179dc2654",
	"dashboard/energy-scientist/e1":      "e85a0b31966050eeb5ea96fc39f3a64e693d563c83c4a6a2bec16a804cd0cdaa",
	"dashboard/energy-scientist/e2":      "4590b23e880f3db7008966ff1e6faef7d8d656dd4f1360bf74a6f26045874480",
	"dashboard/public-administration/e1": "05c9eea939a60fb1cb186201dd7c882701127bd9d8325d638008dcd8db1fc78b",
	"dashboard/public-administration/e2": "3311e13db4961f226ceefb021bdfd0911b08c08e5cc618dca159ccc788ace93f",
	"encoded/clean":                      "87dc4a6f18c39bc98f842261edbf7b649454c0b43713d50dc79d606b6605b80b",
	"encoded/dirty":                      "6823c5a35ca6b01440ef1961eb9c4e240c717d717ae9a19944aff63c1017f4bc",
	"query/grouped-indexed/e1":           "aaade874e3ddb8e36b6f1f8a1c93406206f02a73f735c060f4fcf492398946c7",
	"query/grouped-indexed/e2":           "3c8a28bf7846eb31ce1916c199f267ba2814d2f22c56f214452e0ea820c8036d",
	"query/grouped-masked/e1":            "366f1f3922c19b0ef2d17e8fd9866980e6aae86f74536f55755480a4376b9ef9",
	"query/grouped-masked/e2":            "498bf5ec61774b47f8501d6c2127ec0fc9360b673c30f32bafb17bd2aa18d4e0",
	"query/not-or-page/e1":               "e027e6247d365b0f4c17ffee3df2d062445452d234d1a17ab1e9bfa55dc4f8fa",
	"query/not-or-page/e2":               "b6cf9ac8ea39ebc586ac4deebc5f31cb2d1be94bb1f55fbafd9e1212ab14fc82",
	"query/page-deep/e1":                 "845e63667b43715d6e8005d3d7e07f8116a295a46f629ec94df7beeb724d74c1",
	"query/page-deep/e2":                 "27d78abd96ec773f5a0fe10fceecb04188894c211a95a97218ff1a7a2872d7af",
	"query/page-indexed/e1":              "138cbaafc921e4e9d539267da312bc36ea86c3e1b026ca8593205662691ee49b",
	"query/page-indexed/e2":              "d2f1dd44f9a2c6964ebc756259b1dca086c2fabec7aad735c9a720031f6c5e01",
	"query/page-select-all/e1":           "9b469e71474456e9c818f2bc78f873d4286b19ed211fc6db52b30de26b81a625",
	"query/page-select-all/e2":           "e5db595f9ef549610d1c60b848e0f70fbbc1f2f156fee91a463c1c1a1231833e",
	"query/preset-by/e1":                 "8589dad0d0deb7c671a0346a3ed8252f01197a08fee7e015889b8b716d677c98",
	"query/preset-by/e2":                 "0e511db50f57d7a8570bd92bebe9401966a8444db516f1423a8452ea53004f3f",
	"query/stats-ungrouped/e1":           "eab30e6dc99362f1755de2503b98e67caafea1b98eb13170e4eec1df0ca8914f",
	"query/stats-ungrouped/e2":           "a28a0bcb6b5e07b77833dcbea62c5738fdf0abdcdd5dca341774aec05ec0b741",
	"replication/delta":                  "f6ccbef52462b6be4f8b244a4370652b3763961bae7493844415d1ade50c06d9",
	"replication/full":                   "aefcc8c20bbc3e1dc2d6b1c2e650d1979df1666bbe60c0225a768563943bba05",
	"report/cold":                        "93058bd07d9da97e4213485cfe6eb43b71d2f9311b77e3c8a03172be9db971fb",
	"report/incremental":                 "4fe63f7fe7f109f67e4bf35413a656e50668eccc9c3bd06da9173e79dd84928a",
	"serving-table/cold":                 "c5f5c3c36d139669409fabbc8a227348baf7f5dbff15bb508813a0cbce99d81d",
	"serving-table/incremental":          "41291a6a2852a36b8311cdaab56ae5d4728b24b953fa45f08caa59966a3cea60",
	"wal":                                "47b186a50cb28fb7508bb38e56f46e63245cacc37d84f9be46ecd127a523458a",
}

// goldenQueries are the /api/query shapes digested at both epochs: stats
// only and row pages, grouped and not, each planner road (index postings,
// masked scan, a not/or tree the pushdown cannot split, select-all), over a
// store that holds sealed segments and raw tails side by side.
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
		if err := pub.Engine.Table().WriteCSV(&csv); err != nil {
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
