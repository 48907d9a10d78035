package render

import (
	"errors"
	"fmt"
	"html"
)

// Page assembles SVG panels, tables and prose into a single standalone
// HTML dashboard document — the offline counterpart of the paper's folium
// page. It is one byte buffer: every section, and every chart a panel
// draws, is appended to it in place.
type Page struct {
	b []byte
}

// Panel appends one SVG document to dst and returns the extended slice;
// the chart functions of this package, bound to their inputs, are
// panels. On an error the page discards whatever the panel appended.
type Panel func(dst []byte) ([]byte, error)

// NewPage starts an empty dashboard page.
func NewPage(title string) *Page {
	p := &Page{}
	t := html.EscapeString(title)
	p.add("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>", t, "</title>\n<style>\n")
	p.b = append(p.b, `body { font-family: sans-serif; margin: 24px; background: #fafafa; color: #222; }
h1 { border-bottom: 2px solid #4878a8; padding-bottom: 6px; }
h2 { margin-top: 28px; color: #2b4a6b; }
.panel { display: inline-block; background: #fff; border: 1px solid #ddd; margin: 6px; padding: 4px; }
.row { display: flex; flex-wrap: wrap; }
table { border-collapse: collapse; background: #fff; margin: 8px 0; }
th, td { border: 1px solid #ccc; padding: 4px 10px; font-size: 13px; }
th { background: #e8eef5; }
pre { background: #fff; border: 1px solid #ddd; padding: 8px; overflow-x: auto; font-size: 12px; }
`...)
	p.add("</style></head><body>\n<h1>", t, "</h1>\n")
	return p
}

// add appends before, the already escaped text and after.
func (p *Page) add(before, text, after string) {
	p.b = append(append(append(p.b, before...), text...), after...)
}

// AddHeading appends a section heading.
func (p *Page) AddHeading(text string) {
	p.add("<h2>", html.EscapeString(text), "</h2>\n")
}

// AddParagraph appends explanatory prose.
func (p *Page) AddParagraph(text string) {
	p.add("<p>", html.EscapeString(text), "</p>\n")
}

// AddSVG embeds the SVG panel draws.
func (p *Page) AddSVG(draw Panel) error {
	return p.addPanels("", "\n", draw)
}

// AddSVGRow embeds several SVG panels side by side.
func (p *Page) AddSVGRow(draws ...Panel) error {
	return p.addPanels(`<div class="row">`, "</div>\n", draws...)
}

// addPanels appends each panel in a panel div, the lot between before
// and after. On an error the page is left as it was.
func (p *Page) addPanels(before, after string, draws ...Panel) error {
	mark := len(p.b)
	p.b = append(p.b, before...)
	for _, draw := range draws {
		b, err := draw(append(p.b, `<div class="panel">`...))
		if err != nil {
			p.b = p.b[:mark]
			return err
		}
		p.b = append(b, "</div>"...)
	}
	p.b = append(p.b, after...)
	return nil
}

// AddTable appends an HTML table with a header row.
func (p *Page) AddTable(headers []string, rows [][]string) error {
	if len(headers) == 0 {
		return errors.New("render: table needs headers")
	}
	for _, row := range rows {
		if len(row) != len(headers) {
			return fmt.Errorf("render: table row has %d cells, want %d", len(row), len(headers))
		}
	}
	p.b = append(p.b, "<table><thead><tr>"...)
	for _, h := range headers {
		p.add("<th>", html.EscapeString(h), "</th>")
	}
	p.b = append(p.b, "</tr></thead><tbody>"...)
	for _, row := range rows {
		p.b = append(p.b, "<tr>"...)
		for _, cell := range row {
			p.add("<td>", html.EscapeString(cell), "</td>")
		}
		p.b = append(p.b, "</tr>"...)
	}
	p.b = append(p.b, "</tbody></table>\n"...)
	return nil
}

// AddPre appends preformatted text (e.g. the rule table).
func (p *Page) AddPre(text string) {
	p.add("<pre>", html.EscapeString(text), "</pre>\n")
}

// End closes the document and returns its bytes; the page takes no more
// sections.
func (p *Page) End() []byte {
	return append(p.b, "</body></html>\n"...)
}
