package cluster

import (
	"testing"
	"testing/quick"
)

func TestHierarchicalRecoverBlobsAllLinkages(t *testing.T) {
	pts, truth := blobs(21, 3, 25, 0.3)
	for _, linkage := range []Linkage{SingleLinkage, CompleteLinkage, AverageLinkage} {
		dg, err := Hierarchical(pts, linkage)
		if err != nil {
			t.Fatalf("%v: %v", linkage, err)
		}
		if dg.N != len(pts) || len(dg.Merges) != len(pts)-1 {
			t.Fatalf("%v: dendrogram shape %d/%d", linkage, dg.N, len(dg.Merges))
		}
		labels, err := dg.Cut(3)
		if err != nil {
			t.Fatalf("%v: %v", linkage, err)
		}
		// Every true blob maps to exactly one cluster.
		mapping := map[int]int{}
		for i, l := range labels {
			if prev, ok := mapping[truth[i]]; ok && prev != l {
				t.Fatalf("%v: blob %d split", linkage, truth[i])
			} else {
				mapping[truth[i]] = l
			}
		}
		if len(mapping) != 3 {
			t.Fatalf("%v: mapping = %v", linkage, mapping)
		}
	}
}

func TestHierarchicalMergeHeightsMonotone(t *testing.T) {
	// Complete and average linkage produce monotone dendrograms.
	pts, _ := blobs(22, 2, 30, 1.0)
	for _, linkage := range []Linkage{CompleteLinkage, AverageLinkage} {
		dg, err := Hierarchical(pts, linkage)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(dg.Merges); i++ {
			if dg.Merges[i].Height < dg.Merges[i-1].Height-1e-9 {
				t.Fatalf("%v: height inversion at merge %d", linkage, i)
			}
		}
	}
}

func TestHierarchicalCutEdges(t *testing.T) {
	pts, _ := blobs(23, 2, 10, 0.5)
	dg, err := Hierarchical(pts, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	// k=1: everything together.
	labels, err := dg.Cut(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range labels {
		if l != 0 {
			t.Fatal("k=1 should produce one cluster")
		}
	}
	// k=n: every point alone.
	labels, err = dg.Cut(len(pts))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, l := range labels {
		if seen[l] {
			t.Fatal("k=n should produce singletons")
		}
		seen[l] = true
	}
	if _, err := dg.Cut(0); err == nil {
		t.Fatal("want error for k=0")
	}
	if _, err := dg.Cut(len(pts) + 1); err == nil {
		t.Fatal("want error for k>n")
	}
}

func TestHierarchicalCutCountProperty(t *testing.T) {
	f := func(seed int64, k8 uint8) bool {
		pts, _ := blobs(seed, 2, 12, 1.5)
		dg, err := Hierarchical(pts, CompleteLinkage)
		if err != nil {
			return false
		}
		k := int(k8)%len(pts) + 1
		labels, err := dg.Cut(k)
		if err != nil {
			return false
		}
		distinct := map[int]bool{}
		for _, l := range labels {
			distinct[l] = true
		}
		return len(distinct) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalErrors(t *testing.T) {
	if _, err := Hierarchical(nil, SingleLinkage); err == nil {
		t.Fatal("want error for empty input")
	}
	if _, err := Hierarchical([][]float64{{1}, {1, 2}}, SingleLinkage); err == nil {
		t.Fatal("want error for ragged input")
	}
	if _, err := Hierarchical([][]float64{{1, 2}}, Linkage(99)); err == nil {
		t.Fatal("want error for unknown linkage")
	}
}

func TestHierarchicalAgreesWithKMeansOnBlobs(t *testing.T) {
	pts, _ := blobs(25, 4, 20, 0.3)
	dg, err := Hierarchical(pts, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	hl, err := dg.Cut(4)
	if err != nil {
		t.Fatal(err)
	}
	// Best of several k-means restarts: a single random init can land in
	// a bad local optimum on 4 blobs.
	var km *KMeansResult
	for r := int64(0); r < 6; r++ {
		res, err := KMeans(pts, KMeansConfig{K: 4, Seed: r})
		if err != nil {
			t.Fatal(err)
		}
		if km == nil || res.SSE < km.SSE {
			km = res
		}
	}
	// Same partition up to label permutation.
	perm := map[int]int{}
	for i := range pts {
		if mapped, ok := perm[hl[i]]; ok {
			if mapped != km.Labels[i] {
				t.Fatal("hierarchical and k-means partitions differ on separated blobs")
			}
		} else {
			perm[hl[i]] = km.Labels[i]
		}
	}
}

func BenchmarkHierarchical(b *testing.B) {
	pts, _ := blobs(26, 4, 100, 0.8) // 400 points: the sampled profile
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Hierarchical(pts, AverageLinkage); err != nil {
			b.Fatal(err)
		}
	}
}
