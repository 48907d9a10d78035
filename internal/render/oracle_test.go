package render

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// The fmt-based element writers the appending Canvas replaced, kept as
// its oracle: FuzzCanvasMatchesFmt holds every element writer to their
// bytes.

var (
	oracleTextEsc = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	oracleAttrEsc = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
)

func oracleRect(b *strings.Builder, x, y, w, h float64, fill, stroke string, strokeWidth float64) {
	fmt.Fprintf(b,
		`<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" stroke="%s" stroke-width="%.2f"/>`+"\n",
		x, y, w, h, oracleAttrEsc.Replace(fill), oracleAttrEsc.Replace(stroke), strokeWidth)
}

func oracleCircle(b *strings.Builder, cx, cy, r float64, fill, stroke string, strokeWidth, opacity float64) {
	fmt.Fprintf(b,
		`<circle cx="%.2f" cy="%.2f" r="%.2f" fill="%s" stroke="%s" stroke-width="%.2f" fill-opacity="%.2f"/>`+"\n",
		cx, cy, r, oracleAttrEsc.Replace(fill), oracleAttrEsc.Replace(stroke), strokeWidth, opacity)
}

func oracleLine(b *strings.Builder, x1, y1, x2, y2 float64, stroke string, width float64) {
	fmt.Fprintf(b,
		`<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s" stroke-width="%.2f"/>`+"\n",
		x1, y1, x2, y2, oracleAttrEsc.Replace(stroke), width)
}

func oraclePolygon(b *strings.Builder, pts [][2]float64, fill, stroke string, strokeWidth, opacity float64) {
	var sb strings.Builder
	for i, p := range pts {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%.2f,%.2f", p[0], p[1])
	}
	fmt.Fprintf(b,
		`<polygon points="%s" fill="%s" stroke="%s" stroke-width="%.2f" fill-opacity="%.2f"/>`+"\n",
		sb.String(), oracleAttrEsc.Replace(fill), oracleAttrEsc.Replace(stroke), strokeWidth, opacity)
}

func oracleText(b *strings.Builder, x, y float64, s string, size float64, fill, anchor string) {
	if anchor == "" {
		anchor = AnchorStart
	}
	fmt.Fprintf(b,
		`<text x="%.2f" y="%.2f" font-size="%.1f" font-family="sans-serif" fill="%s" text-anchor="%s">%s</text>`+"\n",
		x, y, size, oracleAttrEsc.Replace(fill), oracleAttrEsc.Replace(anchor), oracleTextEsc.Replace(s))
}

func oracleRotatedLabel(b *strings.Builder, x, y float64, s string) {
	fmt.Fprintf(b,
		`<text x="%.2f" y="%.2f" font-size="10" font-family="sans-serif" fill="#222222" text-anchor="start" transform="rotate(-60 %.2f %.2f)">%s</text>`+"\n",
		x, y, x, y, oracleTextEsc.Replace(s))
}

func oracleDocument(w, h int, body string) string {
	return fmt.Sprintf(
		`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n%s</svg>\n",
		w, h, w, h, body)
}

func oracleHex(c RGB) string { return fmt.Sprintf("#%02x%02x%02x", c.R, c.G, c.B) }

func oracleTrimNum(v float64) string {
	if math.Abs(v) >= 100 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

// FuzzCanvasMatchesFmt draws one of every element from the fuzzed
// coordinates and strings, on a canvas appended after a prefix, and
// requires the bytes of the fmt writers above.
func FuzzCanvasMatchesFmt(f *testing.F) {
	nums := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, 2.2250738585072014e-308,
		1e21, -1e21, 1e300, 2.675, 1.005, 0.125, 0.005, -0.004, 99.995, 99.994999, 123456.785, 2.4, 1e-7,
	}
	strs := []string{"", "plain", `a & b < c > d "e" 'f'`, "Città — ñ €", "\xff\xfe&", "&amp;", `"`}
	for i, x := range nums {
		y, u, v := nums[(i+3)%len(nums)], nums[(i+7)%len(nums)], nums[(i+11)%len(nums)]
		f.Add(x, y, u, v, strs[i%len(strs)], strs[(i+2)%len(strs)], strs[(i+5)%len(strs)], 560+i, 460-i*40, uint8(i*13), uint8(255-i), uint8(i*71))
	}
	f.Fuzz(func(t *testing.T, x, y, u, v float64, s1, s2, s3 string, w, h int, r, g, b uint8) {
		var want strings.Builder
		c := NewCanvas([]byte("prefix"), w, h)
		c.Rect(x, y, u, v, s1, s2, x)
		oracleRect(&want, x, y, u, v, s1, s2, x)
		c.Circle(u, v, x, s2, s3, y, v)
		oracleCircle(&want, u, v, x, s2, s3, y, v)
		c.Line(v, u, y, x, s3, u)
		oracleLine(&want, v, u, y, x, s3, u)
		for _, pts := range [][][2]float64{nil, {{x, y}}, {{x, y}, {u, v}, {v, x}}} {
			c.Polygon(pts, s1, s3, v, u)
			oraclePolygon(&want, pts, s1, s3, v, u)
		}
		for _, anchor := range []string{"", s3} {
			c.Text(x, u, s1, v, s2, anchor)
			oracleText(&want, x, u, s1, v, s2, anchor)
		}
		c.rotatedLabel(y, v, s2)
		oracleRotatedLabel(&want, y, v, s2)
		c.Title(s3)
		oracleText(&want, float64(c.W)/2, 18, s3, 14, "#222222", AnchorMiddle)
		if got, doc := string(c.End()), "prefix"+oracleDocument(c.W, c.H, want.String()); got != doc {
			t.Fatalf("canvas wrote\n%q\nfmt writes\n%q", got, doc)
		}

		col := RGB{r, g, b}
		if got, want := col.Hex(), oracleHex(col); got != want {
			t.Fatalf("Hex = %q, fmt gives %q", got, want)
		}
		for _, n := range []float64{x, y, u, v} {
			if got, want := trimNum(n), oracleTrimNum(n); got != want {
				t.Fatalf("trimNum(%v) = %q, fmt gives %q", n, got, want)
			}
		}
	})
}
