package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"ulixes/internal/sitegen"
)

// opKind distinguishes the operations a round replays.
type opKind int

const (
	opQuery  opKind = iota // POST /query
	opMutate               // POST /mutate?n=1
)

// op is one step of a round.
type op struct {
	kind opKind
	q    *query
	text string // q.text(), rendered once
}

// sizes are the generated sites' dimensions, passed to ulixesd as flags and
// to the generators the oracle uses.
type sizes struct {
	courses, profs, depts int // university
	authors               int // bibliography
}

var (
	fullSizes  = sizes{courses: 50, profs: 20, depts: 3, authors: 500}
	shortSizes = sizes{courses: 12, profs: 6, depts: 2, authors: 40}
)

// workload is one named traffic mix.
type workload struct {
	name string
	site string // "university" or "bibliography"
	// config is the ulixesd configuration beyond the site and its sizes.
	config func(short bool) serverConfig
	// subs are the standing queries registered before the timed phase;
	// the first one is long-polled on the second connection.
	subs []*query
	// build returns one round: the fixed operation sequence every timed
	// round replays. All randomness comes from rng.
	build func(rng *rand.Rand, w *world, short bool) []op
}

var (
	ranks    = []string{"Full", "Associate", "Assistant"}
	sessions = []string{"Fall", "Winter", "Summer"}
	types    = []string{"Graduate", "Undergraduate"}
)

var workloads = []*workload{
	{
		name:   "warm-repeat",
		site:   "university",
		config: func(bool) serverConfig { return serverConfig{} },
		build:  buildWarmRepeat,
	},
	{
		name: "adhoc-plan",
		site: "university",
		config: func(short bool) serverConfig {
			if short {
				return serverConfig{planEntries: 8}
			}
			return serverConfig{planEntries: adhocPlanEntries}
		},
		build: buildAdhocPlan,
	},
	{
		name: "evict-scan",
		site: "bibliography",
		config: func(short bool) serverConfig {
			if short {
				return serverConfig{cacheBytes: 60000}
			}
			return serverConfig{cacheBytes: evictCacheBytes}
		},
		build: buildEvictScan,
	},
	{
		name:   "churn-feed",
		site:   "university",
		config: func(bool) serverConfig { return serverConfig{feed: true} },
		subs: []*query{
			q1("p", "Professor", []string{"PName", "Rank"}),
			q1("p", "Professor", []string{"PName"}, "Rank", "Full"),
			q1("c", "Course", []string{"CName", "Description"}, "Session", "Fall"),
			q1("ci", "CourseInstructor", []string{"CName", "PName"}),
		},
		build: buildChurnFeed,
	},
}

// Workload parameters, chosen so each round is seed-independent in size
// and the store bound sits well below evict-scan's working set.
const (
	adhocPlanEntries = 64     // ulixesd -plan-cache-entries on adhoc-plan
	evictCacheBytes  = 400000 // ulixesd -cache-bytes on evict-scan
	churnBlocks      = 20     // mutate+queries blocks per churn-feed round
	churnQueries     = 4      // queries after each mutation
)

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// q1 builds a one-relation query: the projected attributes, then optional
// attribute/constant pairs.
func q1(alias, rel string, proj []string, sel ...string) *query {
	q := &query{atoms: []atom{{rel, alias}}}
	for _, a := range proj {
		q.proj = append(q.proj, colRef{alias, a})
	}
	for i := 0; i+1 < len(sel); i += 2 {
		q.sels = append(q.sels, eqConst{colRef{alias, sel[i]}, sel[i+1]})
	}
	return q
}

func c(alias, attr string) colRef { return colRef{alias, attr} }

// q10 is the E4 suite's three-relation join "professors of a session's
// courses" (256 Algorithm 1 candidates).
func q10(session string) *query {
	return &query{
		proj:  []colRef{c("p", "PName"), c("p", "Rank")},
		atoms: []atom{{"Course", "c"}, {"CourseInstructor", "ci"}, {"Professor", "p"}},
		joins: []eqJoin{{c("c", "CName"), c("ci", "CName")}, {c("ci", "PName"), c("p", "PName")}},
		sels:  []eqConst{{c("c", "Session"), session}},
	}
}

// q9 is the E4 suite's two-relation join "instructors of courses of a type".
func q9(typ string) *query {
	return &query{
		proj:  []colRef{c("ci", "PName"), c("c", "CName")},
		atoms: []atom{{"Course", "c"}, {"CourseInstructor", "ci"}},
		joins: []eqJoin{{c("c", "CName"), c("ci", "CName")}},
		sels:  []eqConst{{c("c", "Type"), typ}},
	}
}

func queryOps(qs []*query) []op {
	out := make([]op, len(qs))
	for i, q := range qs {
		out[i] = op{kind: opQuery, q: q, text: q.text()}
	}
	return out
}

// pick returns k distinct indices of [0,n) in seeded order.
func pick(rng *rand.Rand, n, k int) []int {
	p := rng.Perm(n)
	if k < n {
		p = p[:k]
	}
	return p
}

func shuffle(rng *rand.Rand, qs []*query) {
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
}

// buildWarmRepeat is the E4/P4 templates over every rank, session,
// department and course type, plus seeded professors and courses for the
// point lookups, in seeded order. Every template's access count is the
// same for every constant, so a round's work does not depend on the seed.
func buildWarmRepeat(rng *rand.Rand, w *world, short bool) []op {
	var qs []*query
	for _, r := range ranks {
		qs = append(qs, q1("p", "Professor", []string{"PName", "Email"}, "Rank", r))
	}
	for _, s := range sessions {
		qs = append(qs, q1("c", "Course", []string{"CName", "Description"}, "Session", s))
		qs = append(qs, q10(s))
	}
	for d := 0; d < w.sz.depts; d++ {
		qs = append(qs, q1("pd", "ProfDept", []string{"PName"}, "DName", sitegen.DeptName(d)))
	}
	for _, t := range types {
		qs = append(qs, q9(t))
	}
	k := 10
	if short {
		k = 2
	}
	for _, p := range pick(rng, w.sz.profs, k) {
		qs = append(qs, q1("p", "Professor", []string{"Email", "Rank"}, "PName", sitegen.ProfName(p)))
	}
	for _, p := range pick(rng, w.sz.profs, k) {
		qs = append(qs, q1("ci", "CourseInstructor", []string{"CName"}, "PName", sitegen.ProfName(p)))
	}
	for _, cn := range pick(rng, w.sz.courses, k) {
		qs = append(qs, q1("c", "Course", []string{"Description", "Type"}, "CName", sitegen.CourseName(cn)))
	}
	shuffle(rng, qs)
	return queryOps(qs)
}

// subsets returns the non-empty subsets of attrs, each in attrs' order.
func subsets(attrs []string) [][]string {
	var out [][]string
	for m := 1; m < 1<<len(attrs); m++ {
		var s []string
		for i, a := range attrs {
			if m&(1<<i) != 0 {
				s = append(s, a)
			}
		}
		out = append(out, s)
	}
	return out
}

// constant draws a value of rel.attr from the oracle's extent, so every
// selection names a value the site holds.
func (w *world) constant(rng *rand.Rand, rel, attr string) string {
	ext := w.ext[rel]
	return ext.rows[rng.Intn(len(ext.rows))][ext.index(attr)]
}

// buildAdhocPlan is a cycle of distinct query shapes — every projection
// of each relation under each selection attribute, plus two-relation joins
// and one cheap three-relation join — longer than the plan cache, with
// seeded constants in seeded order.
func buildAdhocPlan(rng *rand.Rand, w *world, short bool) []op {
	var qs []*query
	single := func(alias, rel string, attrs, selAttrs []string) {
		for _, p := range subsets(attrs) {
			for _, s := range selAttrs {
				if s == "" {
					qs = append(qs, q1(alias, rel, p))
					continue
				}
				qs = append(qs, q1(alias, rel, p, s, w.constant(rng, rel, s)))
			}
		}
	}
	join := func(atoms []atom, joins []eqJoin, projs [][]colRef, sels []colRef) {
		for _, p := range projs {
			for _, s := range sels {
				rel := ""
				for _, a := range atoms {
					if a.alias == s.alias {
						rel = a.rel
					}
				}
				qs = append(qs, &query{proj: p, atoms: atoms, joins: joins,
					sels: []eqConst{{s, w.constant(rng, rel, s.attr)}}})
			}
		}
	}
	if short {
		single("p", "Professor", []string{"PName", "Rank"}, []string{"Rank", "PName"})
		single("d", "Dept", []string{"DName", "Address"}, []string{"DName"})
		join([]atom{{"Professor", "p"}, {"CourseInstructor", "ci"}},
			[]eqJoin{{c("p", "PName"), c("ci", "PName")}},
			[][]colRef{{c("p", "Email")}}, []colRef{c("ci", "CName")})
	} else {
		single("p", "Professor", []string{"PName", "Rank", "Email"}, []string{"", "Rank", "PName"})
		single("c", "Course", []string{"CName", "Session", "Type"}, []string{"Session", "Type", "CName"})
		single("d", "Dept", []string{"DName", "Address"}, []string{"", "DName"})
		single("ci", "CourseInstructor", []string{"CName", "PName"}, []string{"PName", "CName"})
		single("pd", "ProfDept", []string{"PName", "DName"}, []string{"DName", "PName"})
		join([]atom{{"Professor", "p"}, {"CourseInstructor", "ci"}},
			[]eqJoin{{c("p", "PName"), c("ci", "PName")}},
			[][]colRef{{c("p", "Email")}, {c("p", "Rank"), c("ci", "CName")}, {c("ci", "CName")}, {c("p", "PName"), c("p", "Email")}},
			[]colRef{c("ci", "CName"), c("p", "Rank")})
		join([]atom{{"Course", "c"}, {"CourseInstructor", "ci"}},
			[]eqJoin{{c("c", "CName"), c("ci", "CName")}},
			[][]colRef{{c("ci", "PName"), c("c", "CName")}, {c("c", "Description")}, {c("ci", "PName")}},
			[]colRef{c("c", "Type"), c("c", "Session")})
		join([]atom{{"Professor", "p"}, {"ProfDept", "pd"}},
			[]eqJoin{{c("p", "PName"), c("pd", "PName")}},
			[][]colRef{{c("p", "Email")}, {c("p", "Rank"), c("pd", "PName")}},
			[]colRef{c("pd", "DName")})
		join([]atom{{"Dept", "d"}, {"ProfDept", "pd"}},
			[]eqJoin{{c("d", "DName"), c("pd", "DName")}},
			[][]colRef{{c("d", "Address")}, {c("d", "Address"), c("pd", "DName")}},
			[]colRef{c("pd", "PName")})
		join([]atom{{"Professor", "p"}, {"ProfDept", "pd"}, {"Dept", "d"}},
			[]eqJoin{{c("p", "PName"), c("pd", "PName")}, {c("pd", "DName"), c("d", "DName")}},
			[][]colRef{{c("p", "Email")}},
			[]colRef{c("d", "Address")})
	}
	shuffle(rng, qs)
	return queryOps(qs)
}

// buildEvictScan is seeded author lookups, edition lookups, conference-year
// paper lists and author/edition joins over the bibliography.
func buildEvictScan(rng *rand.Rand, w *world, short bool) []op {
	nAuthor, nEdition, nConfYear, nJoin := 48, 24, 4, 4
	if short {
		nAuthor, nEdition, nConfYear, nJoin = 8, 4, 1, 1
	}
	authors := pick(rng, w.sz.authors, nAuthor+nJoin)
	ed := w.ext["Edition"]
	edition := func() (string, string) {
		r := ed.rows[rng.Intn(len(ed.rows))]
		return r[0], r[1]
	}
	var qs []*query
	for _, a := range authors[:nAuthor] {
		qs = append(qs, q1("pa", "PaperAuthor", []string{"PTitle", "ConfName", "Year"}, "AuthorName", sitegen.AuthorName(a)))
	}
	for i := 0; i < nEdition; i++ {
		conf, year := edition()
		qs = append(qs, q1("e", "Edition", []string{"Editors"}, "ConfName", conf, "Year", year))
	}
	for i := 0; i < nConfYear; i++ {
		conf, year := edition()
		qs = append(qs, q1("pa", "PaperAuthor", []string{"PTitle", "AuthorName"}, "ConfName", conf, "Year", year))
	}
	for _, a := range authors[nAuthor:] {
		qs = append(qs, &query{
			proj:  []colRef{c("pa", "PTitle"), c("e", "Editors")},
			atoms: []atom{{"PaperAuthor", "pa"}, {"Edition", "e"}},
			joins: []eqJoin{{c("pa", "ConfName"), c("e", "ConfName")}, {c("pa", "Year"), c("e", "Year")}},
			sels:  []eqConst{{c("pa", "AuthorName"), sitegen.AuthorName(a)}},
		})
	}
	shuffle(rng, qs)
	return queryOps(qs)
}

// buildChurnFeed interleaves one /mutate step with a fixed number of
// queries. The round holds every template the same number of times (up to
// one) and cycles the session constants, so its accesses do not depend on
// the seed; the seed picks the other constants and the order. No template's
// access count depends on the site's current ranks or descriptions.
func buildChurnFeed(rng *rand.Rand, w *world, short bool) []op {
	blocks := churnBlocks
	if short {
		blocks = 6
	}
	n := blocks * churnQueries
	var qs []*query
	for i := 0; i < n; i++ {
		session := sessions[(i/6)%len(sessions)]
		switch i % 6 {
		case 0:
			qs = append(qs, q1("p", "Professor", []string{"PName"}, "Rank", ranks[rng.Intn(len(ranks))]))
		case 1:
			qs = append(qs, q1("p", "Professor", []string{"Email", "Rank"}, "PName", sitegen.ProfName(rng.Intn(w.sz.profs))))
		case 2:
			qs = append(qs, q1("ci", "CourseInstructor", []string{"CName"}, "PName", sitegen.ProfName(rng.Intn(w.sz.profs))))
		case 3:
			qs = append(qs, q1("c", "Course", []string{"CName", "Description"}, "Session", session))
		case 4:
			qs = append(qs, q10(session))
		default:
			qs = append(qs, q1("pd", "ProfDept", []string{"PName"}, "DName", sitegen.DeptName(rng.Intn(w.sz.depts))))
		}
	}
	shuffle(rng, qs)
	var out []op
	for b := 0; b < blocks; b++ {
		out = append(out, op{kind: opMutate})
		out = append(out, queryOps(qs[b*churnQueries:(b+1)*churnQueries])...)
	}
	return out
}

// world is the oracle's model of the site a workload runs on.
type world struct {
	sz    sizes
	univ  *sitegen.University // university workloads
	state siteState
	ext   extents
}

func newWorld(wl *workload, sz sizes) (*world, error) {
	w := &world{sz: sz}
	switch wl.site {
	case "university":
		u, err := sitegen.GenerateUniversity(sitegen.UniversityParams{Courses: sz.courses, Profs: sz.profs, Depts: sz.depts})
		if err != nil {
			return nil, err
		}
		w.univ = u
		w.state = newSiteState(u.Instance)
		w.ext = universityExtents(w.state)
	case "bibliography":
		b, err := sitegen.GenerateBibliography(sitegen.BibliographyParams{Authors: sz.authors})
		if err != nil {
			return nil, err
		}
		w.state = newSiteState(b.Instance)
		w.ext = bibliographyExtents(w.state)
	default:
		return nil, fmt.Errorf("unknown site %q", wl.site)
	}
	return w, nil
}

// refresh recomputes the extents after the mirror changed the site.
func (w *world) refresh() {
	if w.univ != nil {
		w.ext = universityExtents(w.state)
	} else {
		w.ext = bibliographyExtents(w.state)
	}
}

// serverConfig is what a workload sets beyond ulixesd's defaults.
type serverConfig struct {
	cacheBytes  int64 // -cache-bytes (0 = unbounded store)
	planEntries int   // -plan-cache-entries (0 = the default 256)
	feed        bool  // -feed hook, with -mutate-seed set to the run's seed
}

// serverArgs are the ulixesd flags for a workload at the given sizes. View
// answering (-views-auto) stays off: it would answer repeated shapes from
// view extents and hide the layers the workloads measure.
func serverArgs(wl *workload, sz sizes, seed int64, short bool) []string {
	args := []string{"-site", wl.site}
	if wl.site == "university" {
		args = append(args, "-courses", strconv.Itoa(sz.courses), "-profs", strconv.Itoa(sz.profs), "-depts", strconv.Itoa(sz.depts))
	} else {
		args = append(args, "-authors", strconv.Itoa(sz.authors))
	}
	cfg := wl.config(short)
	if cfg.cacheBytes > 0 {
		args = append(args, "-cache-bytes", strconv.FormatInt(cfg.cacheBytes, 10))
	}
	if cfg.planEntries > 0 {
		args = append(args, "-plan-cache-entries", strconv.Itoa(cfg.planEntries))
	}
	if cfg.feed {
		args = append(args, "-feed", "hook", "-mutate-seed", strconv.FormatInt(seed, 10))
	}
	return args
}
