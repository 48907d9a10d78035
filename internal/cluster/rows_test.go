package cluster

import (
	"errors"
	"fmt"

	"indice/internal/matrix"
)

// The [][]float64 adapters of K-means and the DBSCAN family. No other
// package calls them (production feeds the *Matrix entry points); the
// tests here still describe their inputs as row slices.

// KMeans clusters the row-major points into cfg.K groups with Lloyd's
// algorithm under the Euclidean metric. It is a thin adapter over
// KMeansMatrix; see there for the algorithm.
func KMeans(points [][]float64, cfg KMeansConfig) (*KMeansResult, error) {
	if len(points) == 0 {
		return nil, errors.New("cluster: kmeans on empty input")
	}
	m, err := matrix.FromRows(points)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return KMeansMatrix(m, cfg)
}

// DBSCAN is DBSCANMatrix over row slices, sequential.
func DBSCAN(points [][]float64, eps float64, minPts int) (*DBSCANResult, error) {
	return DBSCANParallel(points, eps, minPts, 1)
}

// DBSCANParallel is DBSCAN with the region queries fanned out across
// parallelism workers. Thin adapter over DBSCANMatrixParallel.
func DBSCANParallel(points [][]float64, eps float64, minPts, parallelism int) (*DBSCANResult, error) {
	if len(points) == 0 {
		return nil, errors.New("cluster: dbscan on empty input")
	}
	m, err := matrix.FromRows(points)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return DBSCANMatrixParallel(m, eps, minPts, parallelism)
}

// KDistances is KDistancesMatrix over row slices, sequential.
func KDistances(points [][]float64, k int) ([]float64, error) {
	return KDistancesParallel(points, k, 1)
}

// KDistancesParallel is KDistances with the per-point scans fanned out
// across parallelism workers. Thin adapter over KDistancesMatrix.
func KDistancesParallel(points [][]float64, k, parallelism int) ([]float64, error) {
	if len(points) == 0 {
		return nil, errors.New("cluster: k-distances on empty input")
	}
	m, err := matrix.FromRows(points)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return KDistancesMatrix(m, k, parallelism)
}

// EstimateDBSCANParams is EstimateDBSCANParamsMatrix over row slices,
// sequential.
func EstimateDBSCANParams(points [][]float64, minPtsCandidates []int) (eps float64, minPts int, err error) {
	return EstimateDBSCANParamsParallel(points, minPtsCandidates, 1)
}

// EstimateDBSCANParamsParallel is EstimateDBSCANParams with the quadratic
// k-distance passes parallelized across parallelism workers. Thin
// adapter over EstimateDBSCANParamsMatrix.
func EstimateDBSCANParamsParallel(points [][]float64, minPtsCandidates []int, parallelism int) (eps float64, minPts int, err error) {
	if len(points) == 0 {
		return 0, 0, errors.New("cluster: no usable minPts candidate")
	}
	m, ferr := matrix.FromRows(points)
	if ferr != nil {
		return 0, 0, fmt.Errorf("cluster: %w", ferr)
	}
	return EstimateDBSCANParamsMatrix(m, minPtsCandidates, parallelism)
}
