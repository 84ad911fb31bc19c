package main

import (
	"fmt"

	"repro/internal/domain/travel"
	"repro/internal/protocol"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xq"
)

// docResolver serves doc('uri') from the generated documents.
func docResolver(docs map[string]string) (func(string) (*xmltree.Node, error), error) {
	parsed := map[string]*xmltree.Node{}
	for uri, src := range docs {
		d, err := xmltree.ParseString(src)
		if err != nil {
			return nil, err
		}
		parsed[uri] = d
	}
	return func(uri string) (*xmltree.Node, error) {
		if d, ok := parsed[uri]; ok {
			return d, nil
		}
		return nil, fmt.Errorf("no document %s", uri)
	}, nil
}

func eventAttrs(p *post) ([]*xmltree.Node, error) {
	var out []*xmltree.Node
	for _, ev := range p.Events {
		d, err := xmltree.ParseString(ev.XML)
		if err != nil {
			return nil, err
		}
		out = append(out, d.Root())
	}
	return out, nil
}

// queryCases replays the Fig. 4 rule's three queries for each recorded
// booking: the person's cars (xq over the cars document), each car's
// class (the opaque store's XPath over the classes document) and the
// destination's cars (the opaque XQuery node's query, $Dest substituted
// as the GRH substitutes it).
func (w *carrental) queryCases(posts []*post) (xqs, xps []func() error, err error) {
	docs, err := docResolver(map[string]string{travel.CarsDoc: w.carsXML(), travel.AvailDoc: w.availXML()})
	if err != nil {
		return nil, nil, err
	}
	classes, err := xmltree.ParseString(w.classesXML())
	if err != nil {
		return nil, nil, err
	}
	cars := xq.MustCompile(`for $c in doc('` + travel.CarsDoc + `')//owner[@name=$Person]/car return $c/model/text()`)
	for _, p := range posts {
		evs, err := eventAttrs(p)
		if err != nil {
			return nil, nil, err
		}
		for _, ev := range evs {
			person, dest := ev.AttrValue("", "person"), ev.AttrValue("", "to")
			xqs = append(xqs, func() error {
				_, err := cars.Eval(&xq.Context{Docs: docs, Namespaces: travel.Namespaces(), Vars: map[string]xq.Sequence{"Person": {person}}})
				return err
			})
			avail := `<log:answers xmlns:log="` + protocol.LogNS + `">{for $c in doc('` + travel.AvailDoc + `')//city[@name='` + dest + `']/car ` +
				`return <log:answer><log:variable name="Class">{string($c/@class)}</log:variable>` +
				`<log:variable name="Avail">{$c/name/text()}</log:variable></log:answer>}</log:answers>`
			xqs = append(xqs, func() error {
				q, err := xq.CompileCached(avail)
				if err == nil {
					_, err = q.Eval(&xq.Context{Docs: docs, Namespaces: travel.Namespaces()})
				}
				return err
			})
			for _, o := range w.owners {
				if o.name != person {
					continue
				}
				for _, m := range o.cars {
					src := `//entry[@model='` + m + `']/@class`
					xps = append(xps, func() error {
						e, err := xpath.CompileCached(src)
						if err == nil {
							_, err = e.Eval(&xpath.Context{Node: classes})
						}
						return err
					})
				}
			}
		}
	}
	return xqs, xps, nil
}

// queryCases replays, for each recorded tick whose symbol has rules with
// a query, that query over the levels document.
func (w *fanout) queryCases(posts []*post) (xqs, xps []func() error, err error) {
	docs, err := docResolver(map[string]string{fanoutLevels: w.levelsXML()})
	if err != nil {
		return nil, nil, err
	}
	for _, p := range posts {
		evs, err := eventAttrs(p)
		if err != nil {
			return nil, nil, err
		}
		for _, ev := range evs {
			if ev.Name.Local != "tick" {
				continue
			}
			sym := ev.AttrValue("", "sym")
			for _, i := range w.bySym[sym] {
				if !w.atomics[i].query {
					continue
				}
				src := `for $w in doc('` + fanoutLevels + `')//sym[@name='` + sym + `']/w return $w/text()`
				xqs = append(xqs, func() error {
					q, err := xq.CompileCached(src)
					if err == nil {
						_, err = q.Eval(&xq.Context{Docs: docs})
					}
					return err
				})
			}
		}
	}
	return xqs, nil, nil
}
