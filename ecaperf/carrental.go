package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/domain/travel"
	"repro/internal/protocol"
	"repro/internal/services"
)

// carrental is the paper's Fig. 4 rule run -distribute, so every component
// travels over HTTP as it would to the paper's autonomous Web services.
//
// Why: most of the time goes to GRH HTTP transport, protocol encode and
// decode, the service handlers, opaque per-tuple mediation, xq/xpath and
// the 3-way join. It has one rule, so the matcher, SNOOP and the store do
// almost nothing. The cars document stays small (about 50 owners): at a
// few hundred owners //owner[@name=$Person] alone costs about a
// millisecond per dispatch and would hide everything else.
type carrental struct {
	seed    int64
	models  []string
	classOf map[string]string
	owners  []owner
	cities  []city
}

type owner struct {
	name string
	cars []string // models
}

type city struct {
	name  string
	avail []availCar
}

type availCar struct{ class, name string }

// Open-loop rate in events/s: about a third of the closed-loop capacity
// measured at the seed commit on a 2-vCPU host.
const carrentalRate = 150

// newCarrental generates the documents. The seed picks which models each
// owner has and which classes each city offers; the shape is fixed, so
// the work per booking does not swing with the seed: 24 models spread
// evenly over classes A-F, 50 owners with 1-3 distinct cars (by owner
// index), and 12 cities with 4 cars each in 4 distinct classes.
func newCarrental(seed int64) *carrental {
	r := rand.New(rand.NewSource(seed))
	w := &carrental{seed: seed, classOf: map[string]string{}}
	const classes = "ABCDEF"
	for i := 0; i < 24; i++ {
		m := fmt.Sprintf("Model %02d", i)
		w.models = append(w.models, m)
		w.classOf[m] = string(classes[i%len(classes)])
	}
	for i := 0; i < 50; i++ {
		o := owner{name: fmt.Sprintf("Person %02d", i)}
		for _, j := range r.Perm(len(w.models))[:1+i%3] {
			o.cars = append(o.cars, w.models[j])
		}
		w.owners = append(w.owners, o)
	}
	for i := 0; i < 12; i++ {
		c := city{name: fmt.Sprintf("City %02d", i)}
		for n, j := range r.Perm(len(classes))[:4] {
			c.avail = append(c.avail, availCar{
				class: string(classes[j]),
				name:  fmt.Sprintf("Rental %02d-%d", i, n),
			})
		}
		w.cities = append(w.cities, c)
	}
	return w
}

func (w *carrental) carsXML() string {
	var b strings.Builder
	b.WriteString("<owners>")
	for _, o := range w.owners {
		fmt.Fprintf(&b, `<owner name="%s">`, o.name)
		for i, m := range o.cars {
			fmt.Fprintf(&b, "<car><model>%s</model><year>%d</year></car>", m, 2000+i)
		}
		b.WriteString("</owner>")
	}
	b.WriteString("</owners>")
	return b.String()
}

func (w *carrental) classesXML() string {
	var b strings.Builder
	b.WriteString("<classes>")
	for _, m := range w.models {
		fmt.Fprintf(&b, `<entry model="%s" class="%s"/>`, m, w.classOf[m])
	}
	b.WriteString("</classes>")
	return b.String()
}

func (w *carrental) availXML() string {
	var b strings.Builder
	b.WriteString("<availability>")
	for _, c := range w.cities {
		fmt.Fprintf(&b, `<city name="%s">`, c.name)
		for _, a := range c.avail {
			fmt.Fprintf(&b, `<car class="%s"><name>%s</name></car>`, a.class, a.name)
		}
		b.WriteString("</city>")
	}
	b.WriteString("</availability>")
	return b.String()
}

// ruleXML is the Fig. 4 rule with one extra event attribute, ref, bound
// and echoed into the action so each action can be traced to its event.
func (w *carrental) ruleXML(base string) string {
	return `<eca:rule xmlns:eca="` + protocol.ECANS + `" xmlns:travel="` + travel.NS + `" xmlns:xq="` + services.XQueryNS + `" id="car-rental">
  <eca:event><travel:booking person="$Person" to="$Dest" ref="$Ref"/></eca:event>
  <eca:variable name="OwnCar">
    <eca:query>
      <xq:query>for $c in doc('` + travel.CarsDoc + `')//owner[@name=$Person]/car return $c/model/text()</xq:query>
    </eca:query>
  </eca:variable>
  <eca:variable name="Class">
    <eca:query>
      <eca:opaque language="` + services.XQueryNS + `-opaque" uri="` + base + `/opaque/store">//entry[@model='$OwnCar']/@class</eca:opaque>
    </eca:query>
  </eca:variable>
  <eca:query binds="Class Avail">
    <eca:opaque language="` + services.XQueryNS + `-opaque" uri="` + base + `/opaque/xquery">` +
		`&lt;log:answers xmlns:log="` + protocol.LogNS + `"&gt;{` +
		`for $c in doc('` + travel.AvailDoc + `')//city[@name='$Dest']/car ` +
		`return &lt;log:answer&gt;` +
		`&lt;log:variable name="Class"&gt;{string($c/@class)}&lt;/log:variable&gt;` +
		`&lt;log:variable name="Avail"&gt;{$c/name/text()}&lt;/log:variable&gt;` +
		`&lt;/log:answer&gt;}&lt;/log:answers&gt;</eca:opaque>
  </eca:query>
  <eca:action><travel:inform person="$Person" ownCar="$OwnCar" class="$Class" car="$Avail" ref="$Ref"/></eca:action>
</eca:rule>`
}

// expected is the reference join, computed in Go over the generated
// documents: the person's cars, then their classes, then the cars
// available at the destination in the same class. Bindings are sets, so
// duplicates collapse exactly as the engine's relations collapse them.
func (w *carrental) expected(person, dest, ref string) []string {
	var cars []string
	for _, o := range w.owners {
		if o.name == person {
			cars = o.cars
		}
	}
	var avail []availCar
	for _, c := range w.cities {
		if c.name == dest {
			avail = c.avail
		}
	}
	seen := map[string]bool{}
	var out []string
	for _, m := range cars {
		for _, a := range avail {
			if a.class != w.classOf[m] {
				continue
			}
			k := actionKey("inform", map[string]string{
				"person": person, "ownCar": m, "class": a.class, "car": a.name, "ref": ref,
			})
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

func (w *carrental) setup(ctx context.Context, mw *middleware) (*deployment, error) {
	d, err := deploy(deploySpec{
		docs:       map[string]string{travel.CarsDoc: w.carsXML(), travel.AvailDoc: w.availXML()},
		opaqueDoc:  w.classesXML(),
		distribute: true,
	}, mw)
	if err != nil {
		return nil, err
	}
	c := newClient(d.base, 1)
	defer c.close()
	if err := c.registerRule(ctx, "", w.ruleXML(d.base)); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (w *carrental) openRate() float64 { return carrentalRate }
func (w *carrental) perPost() float64  { return 1 }

// source: one booking per POST. Person choice is Zipf-skewed over the
// owners; about 10% of bookings come from unknown persons, whose
// instance dies after the first query.
func (w *carrental) source(phase string, caller int) source {
	r := rand.New(rand.NewSource(subSeed(w.seed, "carrental", phase, caller)))
	zipf := rand.NewZipf(r, 1.1, 5, uint64(len(w.owners)-1))
	n := 0
	return sourceFunc(func() *post {
		n++
		ref := fmt.Sprintf("%s-%d-%d", phase, caller, n)
		person := fmt.Sprintf("Guest %d", r.Intn(1000))
		if r.Intn(10) != 0 {
			person = w.owners[zipf.Uint64()].name
		}
		from := w.cities[r.Intn(len(w.cities))].name
		dest := w.cities[r.Intn(len(w.cities))].name
		xml := `<travel:booking xmlns:travel="` + travel.NS + `" person="` + person +
			`" from="` + from + `" to="` + dest + `" ref="` + ref + `"/>`
		return &post{Events: []event{{Ref: ref, XML: xml, Want: w.expected(person, dest, ref)}}}
	})
}

func (w *carrental) rules(base string) []tenantRule {
	return []tenantRule{{"", w.ruleXML(base)}}
}

func (w *carrental) verify(ctx context.Context, c *client) []string { return nil }

func (w *carrental) inputs() string {
	return w.carsXML() + "\n" + w.classesXML() + "\n" + w.availXML() + "\n" + w.ruleXML("http://base")
}
