package geo

import (
	"errors"
	"fmt"
)

// Level is a spatial granularity of the INDICE dashboards. The paper's
// drill-down goes city → district → neighbourhood → housing unit; the map
// renderers switch representation (cluster-marker → choropleth → scatter)
// as the level gets finer.
type Level int

const (
	// LevelCity shows one aggregate for the whole city.
	LevelCity Level = iota
	// LevelDistrict aggregates per administrative district.
	LevelDistrict
	// LevelNeighbourhood aggregates per neighbourhood.
	LevelNeighbourhood
	// LevelUnit shows individual housing units (single certificates).
	LevelUnit
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelCity:
		return "city"
	case LevelDistrict:
		return "district"
	case LevelNeighbourhood:
		return "neighbourhood"
	case LevelUnit:
		return "unit"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// ParseLevel converts a level name to its Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "city":
		return LevelCity, nil
	case "district":
		return LevelDistrict, nil
	case "neighbourhood", "neighborhood":
		return LevelNeighbourhood, nil
	case "unit", "housing-unit":
		return LevelUnit, nil
	}
	return 0, fmt.Errorf("geo: unknown level %q", s)
}

// Zone is one administrative area at some level.
type Zone struct {
	ID     string
	Name   string
	Level  Level
	Ring   Polygon
	Parent string // ID of the enclosing zone; empty for the city
}

// Hierarchy is the administrative zone tree of a city: one city zone, its
// districts, and their neighbourhoods. It answers point-in-zone queries,
// which the dashboards use to aggregate certificates at every level.
type Hierarchy struct {
	city           Zone
	districts      []Zone
	neighbourhoods []Zone
	byID           map[string]*Zone
}

// NewHierarchy assembles and validates a hierarchy. Every district must
// name the city as parent, every neighbourhood must name an existing
// district.
func NewHierarchy(city Zone, districts, neighbourhoods []Zone) (*Hierarchy, error) {
	if city.Level != LevelCity {
		return nil, errors.New("geo: city zone must have LevelCity")
	}
	if len(city.Ring) < 3 {
		return nil, errors.New("geo: city ring must have at least 3 vertices")
	}
	h := &Hierarchy{
		city:           city,
		districts:      append([]Zone(nil), districts...),
		neighbourhoods: append([]Zone(nil), neighbourhoods...),
		byID:           make(map[string]*Zone),
	}
	h.byID[city.ID] = &h.city
	for i := range h.districts {
		d := &h.districts[i]
		if d.Level != LevelDistrict {
			return nil, fmt.Errorf("geo: zone %q is not a district", d.ID)
		}
		if d.Parent != city.ID {
			return nil, fmt.Errorf("geo: district %q parent %q is not the city", d.ID, d.Parent)
		}
		if _, dup := h.byID[d.ID]; dup {
			return nil, fmt.Errorf("geo: duplicate zone id %q", d.ID)
		}
		if len(d.Ring) < 3 {
			return nil, fmt.Errorf("geo: district %q ring too short", d.ID)
		}
		h.byID[d.ID] = d
	}
	for i := range h.neighbourhoods {
		n := &h.neighbourhoods[i]
		if n.Level != LevelNeighbourhood {
			return nil, fmt.Errorf("geo: zone %q is not a neighbourhood", n.ID)
		}
		parent, ok := h.byID[n.Parent]
		if !ok || parent.Level != LevelDistrict {
			return nil, fmt.Errorf("geo: neighbourhood %q parent %q is not a district", n.ID, n.Parent)
		}
		if _, dup := h.byID[n.ID]; dup {
			return nil, fmt.Errorf("geo: duplicate zone id %q", n.ID)
		}
		if len(n.Ring) < 3 {
			return nil, fmt.Errorf("geo: neighbourhood %q ring too short", n.ID)
		}
		h.byID[n.ID] = n
	}
	return h, nil
}

// City returns the city zone.
func (h *Hierarchy) City() Zone { return h.city }

// Districts returns the district zones in declaration order.
func (h *Hierarchy) Districts() []Zone {
	return append([]Zone(nil), h.districts...)
}

// Neighbourhoods returns the neighbourhood zones in declaration order.
func (h *Hierarchy) Neighbourhoods() []Zone {
	return append([]Zone(nil), h.neighbourhoods...)
}

// ZonesAt returns the zones at the given level. LevelUnit has no zones.
func (h *Hierarchy) ZonesAt(l Level) []Zone {
	switch l {
	case LevelCity:
		return []Zone{h.city}
	case LevelDistrict:
		return h.Districts()
	case LevelNeighbourhood:
		return h.Neighbourhoods()
	default:
		return nil
	}
}

// Zone returns the zone with the given ID.
func (h *Hierarchy) Zone(id string) (Zone, bool) {
	z, ok := h.byID[id]
	if !ok {
		return Zone{}, false
	}
	return *z, true
}

// Locate returns the zone containing p at the requested level. The boolean
// is false when p falls outside every zone at that level (or the level is
// LevelUnit, which has no zones).
func (h *Hierarchy) Locate(p Point, l Level) (Zone, bool) {
	for _, z := range h.ZonesAt(l) {
		if z.Ring.Contains(p) {
			return z, true
		}
	}
	return Zone{}, false
}

// Assign maps every point to the ID of its containing zone at the given
// level; points outside all zones map to the empty string.
func (h *Hierarchy) Assign(pts []Point, l Level) []string {
	zones := h.ZonesAt(l)
	// Precompute bounding boxes to skip most polygon tests.
	boxes := make([]Bounds, len(zones))
	for i, z := range zones {
		boxes[i] = z.Ring.Bounds()
	}
	out := make([]string, len(pts))
	for i, p := range pts {
		for j, z := range zones {
			if !boxes[j].Contains(p) {
				continue
			}
			if z.Ring.Contains(p) {
				out[i] = z.ID
				break
			}
		}
	}
	return out
}

// GridHierarchy builds a rectangular administrative hierarchy over the
// given bounds: rows×cols districts named D1..Dn, each subdivided into an
// nPerSide×nPerSide neighbourhood grid named Dk.N1..; this is both the
// synthetic city's layout and the fallback the CLI uses for datasets that
// ship without official zone polygons.
func GridHierarchy(name string, b Bounds, rows, cols, nPerSide int) (*Hierarchy, error) {
	if b.IsEmpty() {
		return nil, errors.New("geo: grid hierarchy needs non-empty bounds")
	}
	if rows < 1 || cols < 1 || nPerSide < 1 {
		return nil, fmt.Errorf("geo: invalid grid %dx%d/%d", rows, cols, nPerSide)
	}
	city := Zone{ID: "city", Name: name, Level: LevelCity, Ring: RectPolygon(b)}
	latStep := (b.MaxLat - b.MinLat) / float64(rows)
	lonStep := (b.MaxLon - b.MinLon) / float64(cols)
	var districts, neighbourhoods []Zone
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			id := fmt.Sprintf("D%d", r*cols+c+1)
			db := Bounds{
				MinLat: b.MinLat + float64(r)*latStep,
				MaxLat: b.MinLat + float64(r+1)*latStep,
				MinLon: b.MinLon + float64(c)*lonStep,
				MaxLon: b.MinLon + float64(c+1)*lonStep,
			}
			districts = append(districts, Zone{
				ID:     id,
				Name:   fmt.Sprintf("District %d", r*cols+c+1),
				Level:  LevelDistrict,
				Parent: "city",
				Ring:   RectPolygon(db),
			})
			nLat := (db.MaxLat - db.MinLat) / float64(nPerSide)
			nLon := (db.MaxLon - db.MinLon) / float64(nPerSide)
			for nr := 0; nr < nPerSide; nr++ {
				for nc := 0; nc < nPerSide; nc++ {
					nb := Bounds{
						MinLat: db.MinLat + float64(nr)*nLat,
						MaxLat: db.MinLat + float64(nr+1)*nLat,
						MinLon: db.MinLon + float64(nc)*nLon,
						MaxLon: db.MinLon + float64(nc+1)*nLon,
					}
					neighbourhoods = append(neighbourhoods, Zone{
						ID:     fmt.Sprintf("%s.N%d", id, nr*nPerSide+nc+1),
						Name:   fmt.Sprintf("%s / Neighbourhood %d", id, nr*nPerSide+nc+1),
						Level:  LevelNeighbourhood,
						Parent: id,
						Ring:   RectPolygon(nb),
					})
				}
			}
		}
	}
	return NewHierarchy(city, districts, neighbourhoods)
}
