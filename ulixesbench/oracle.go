package main

import (
	"fmt"
	"sort"
	"strings"

	"ulixes/internal/adm"
	"ulixes/internal/nested"
	"ulixes/internal/sitegen"
)

// The oracle answers the workloads' queries from the generator's own site
// instance. It follows the view definitions by hand (internal/view) over
// the generated page tuples and evaluates each conjunctive query with a
// nested-loop select/project/join, so nothing it computes passes through
// the program's planner, rewriter, evaluator, wrapper or page store.

// colRef names one attribute of one query atom.
type colRef struct{ alias, attr string }

// atom is one relation occurrence in a query's FROM clause.
type atom struct{ rel, alias string }

// eqJoin is an equality between two atoms' attributes.
type eqJoin struct{ l, r colRef }

// eqConst is an equality between an attribute and a constant.
type eqConst struct {
	col colRef
	val string
}

// query is a conjunctive query as the workloads build it: rendered to SQL
// for ulixesd, evaluated directly by the oracle.
type query struct {
	proj  []colRef
	atoms []atom
	joins []eqJoin
	sels  []eqConst
}

func (c colRef) String() string { return c.alias + "." + c.attr }

// text renders the query in ulixesd's concrete syntax.
func (q *query) text() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, c := range q.proj {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.String())
	}
	sb.WriteString(" FROM ")
	for i, a := range q.atoms {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.rel + " " + a.alias)
	}
	var conds []string
	for _, j := range q.joins {
		conds = append(conds, j.l.String()+" = "+j.r.String())
	}
	for _, s := range q.sels {
		conds = append(conds, s.col.String()+" = '"+strings.ReplaceAll(s.val, "'", "''")+"'")
	}
	if len(conds) > 0 {
		sb.WriteString(" WHERE " + strings.Join(conds, " AND "))
	}
	return sb.String()
}

// extent is the set of rows of one external relation.
type extent struct {
	attrs []string
	rows  [][]string
	seen  map[string]bool
}

func newExtent(attrs ...string) *extent {
	return &extent{attrs: attrs, seen: make(map[string]bool)}
}

func (e *extent) add(vals ...string) {
	k := rowKey(vals)
	if e.seen[k] {
		return
	}
	e.seen[k] = true
	e.rows = append(e.rows, vals)
}

func (e *extent) index(attr string) int {
	for i, a := range e.attrs {
		if a == attr {
			return i
		}
	}
	return -1
}

// extents maps relation names to their extents.
type extents map[string]*extent

// rowKey joins a row's values into one comparable string.
func rowKey(vals []string) string { return strings.Join(vals, "\x1f") }

// answer is a query result as a sorted set of row keys.
type answer []string

// newAnswer builds an answer from rows, dropping duplicates.
func newAnswer(rows [][]string) answer {
	set := make(map[string]bool, len(rows))
	for _, r := range rows {
		set[rowKey(r)] = true
	}
	out := make(answer, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (a answer) equal(b answer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hash is a 64-bit FNV-1a digest of the answer, for cheap per-operation
// records.
func (a answer) hash() uint64 {
	h := uint64(14695981039346656037)
	for _, k := range a {
		for i := 0; i < len(k); i++ {
			h ^= uint64(k[i])
			h *= 1099511628211
		}
		h ^= 0xff
		h *= 1099511628211
	}
	return h
}

// eval evaluates q over the extents.
func (x extents) eval(q *query) (answer, error) {
	type bound struct {
		ext  *extent
		rows [][]string
	}
	pos := make(map[string]int, len(q.atoms))
	atoms := make([]bound, len(q.atoms))
	for i, a := range q.atoms {
		ext := x[a.rel]
		if ext == nil {
			return nil, fmt.Errorf("oracle: unknown relation %s", a.rel)
		}
		pos[a.alias] = i
		atoms[i].ext = ext
	}
	col := func(c colRef) (int, int, error) {
		i, ok := pos[c.alias]
		if !ok {
			return 0, 0, fmt.Errorf("oracle: unknown alias %s", c.alias)
		}
		j := atoms[i].ext.index(c.attr)
		if j < 0 {
			return 0, 0, fmt.Errorf("oracle: %s has no attribute %s", q.atoms[i].rel, c.attr)
		}
		return i, j, nil
	}
	// Constant selections filter each atom's candidate rows up front.
	for i, a := range q.atoms {
	rows:
		for _, r := range atoms[i].ext.rows {
			for _, s := range q.sels {
				if s.col.alias != a.alias {
					continue
				}
				_, j, err := col(s.col)
				if err != nil {
					return nil, err
				}
				if r[j] != s.val {
					continue rows
				}
			}
			atoms[i].rows = append(atoms[i].rows, r)
		}
	}
	// Each join is checked at the depth where its later atom is bound.
	type check struct{ li, lj, ri, rj int }
	checks := make([][]check, len(q.atoms))
	for _, jn := range q.joins {
		li, lj, err := col(jn.l)
		if err != nil {
			return nil, err
		}
		ri, rj, err := col(jn.r)
		if err != nil {
			return nil, err
		}
		d := li
		if ri > d {
			d = ri
		}
		checks[d] = append(checks[d], check{li, lj, ri, rj})
	}
	type out struct{ i, j int }
	proj := make([]out, len(q.proj))
	for k, c := range q.proj {
		i, j, err := col(c)
		if err != nil {
			return nil, err
		}
		proj[k] = out{i, j}
	}
	var result [][]string
	cur := make([][]string, len(q.atoms))
	var rec func(d int)
	rec = func(d int) {
		if d == len(q.atoms) {
			row := make([]string, len(proj))
			for k, p := range proj {
				row[k] = cur[p.i][p.j]
			}
			result = append(result, row)
			return
		}
	next:
		for _, r := range atoms[d].rows {
			cur[d] = r
			for _, c := range checks[d] {
				if cur[c.li][c.lj] != cur[c.ri][c.rj] {
					continue next
				}
			}
			rec(d + 1)
		}
	}
	rec(0)
	return newAnswer(result), nil
}

// page is one page of the oracle's copy of a site.
type page struct {
	scheme string
	tup    nested.Tuple
}

// siteState is the oracle's copy of a site: URL → page tuple.
type siteState map[string]page

// newSiteState copies the pages of a generated instance.
func newSiteState(inst *adm.Instance) siteState {
	s := make(siteState)
	for _, name := range inst.Scheme.PageNames() {
		for _, t := range inst.Relation(name).Tuples() {
			s[t.MustGet(adm.URLAttr).String()] = page{scheme: name, tup: t}
		}
	}
	return s
}

func str(t nested.Tuple, attr string) string {
	v, ok := t.Get(attr)
	if !ok {
		return ""
	}
	return v.String()
}

func list(t nested.Tuple, attr string) []nested.Tuple {
	v, ok := t.Get(attr)
	if !ok {
		return nil
	}
	lv, _ := v.(nested.ListValue)
	return lv
}

// follow returns the page a link attribute points to; a dangling link
// yields false, as navigation would skip it.
func (s siteState) follow(t nested.Tuple, link string) (nested.Tuple, bool) {
	p, ok := s[str(t, link)]
	return p.tup, ok
}

// universityExtents follows the university view's default navigations
// (internal/view/university.go): Dept via the department list, Professor
// and ProfDept via the professor list, CourseInstructor via the
// professors' course lists, Course via the session pages.
func universityExtents(s siteState) extents {
	dept := newExtent("DName", "Address")
	prof := newExtent("PName", "Rank", "Email")
	course := newExtent("CName", "Session", "Description", "Type")
	ci := newExtent("CName", "PName")
	pd := newExtent("PName", "DName")
	if dl, ok := s[sitegen.UnivDeptListURL]; ok {
		for _, e := range list(dl.tup, "DeptList") {
			if d, ok := s.follow(e, "ToDept"); ok {
				dept.add(str(d, "DName"), str(d, "Address"))
			}
		}
	}
	if pl, ok := s[sitegen.UnivProfListURL]; ok {
		for _, e := range list(pl.tup, "ProfList") {
			p, ok := s.follow(e, "ToProf")
			if !ok {
				continue
			}
			name := str(p, "Name")
			prof.add(name, str(p, "Rank"), str(p, "Email"))
			pd.add(name, str(p, "DName"))
			for _, c := range list(p, "CourseList") {
				ci.add(str(c, "CName"), name)
			}
		}
	}
	if sl, ok := s[sitegen.UnivSessionListURL]; ok {
		for _, e := range list(sl.tup, "SesList") {
			ses, ok := s.follow(e, "ToSes")
			if !ok {
				continue
			}
			for _, c := range list(ses, "CourseList") {
				if cp, ok := s.follow(c, "ToCourse"); ok {
					course.add(str(cp, "CName"), str(cp, "Session"), str(cp, "Description"), str(cp, "Type"))
				}
			}
		}
	}
	return extents{"Dept": dept, "Professor": prof, "Course": course, "CourseInstructor": ci, "ProfDept": pd}
}

// bibliographyExtents follows the bibliography view's navigations
// (internal/view/bibliography.go) from the conference list.
func bibliographyExtents(s siteState) extents {
	conf := newExtent("ConfName", "Area")
	ed := newExtent("ConfName", "Year", "Editors")
	pa := newExtent("ConfName", "Year", "PTitle", "AuthorName")
	if cl, ok := s[sitegen.BibConfListURL]; ok {
		for _, e := range list(cl.tup, "ConfList") {
			cp, ok := s.follow(e, "ToConf")
			if !ok {
				continue
			}
			name := str(cp, "ConfName")
			conf.add(name, str(cp, "Area"))
			for _, edn := range list(cp, "Editions") {
				ed.add(name, str(edn, "Year"), str(edn, "Editors"))
				yp, ok := s.follow(edn, "ToEdition")
				if !ok {
					continue
				}
				for _, p := range list(yp, "Papers") {
					for _, a := range list(p, "Authors") {
						pa.add(str(yp, "ConfName"), str(yp, "Year"), str(p, "PTitle"), str(a, "AuthorName"))
					}
				}
			}
		}
	}
	return extents{"Conference": conf, "Edition": ed, "PaperAuthor": pa}
}

// mirrorSite is the oracle's stand-in for ulixesd's mutable site: a
// same-seeded sitegen.Mutator over it replays exactly the mutations
// /mutate applies, so the oracle knows the site state after every step.
type mirrorSite struct{ s siteState }

func (m *mirrorSite) UpdatePage(scheme string, tup nested.Tuple) error {
	m.s[tup.MustGet(adm.URLAttr).String()] = page{scheme: scheme, tup: tup}
	return nil
}

func (m *mirrorSite) RemovePage(url string) bool {
	_, ok := m.s[url]
	delete(m.s, url)
	return ok
}

func (m *mirrorSite) Touch(url string) bool {
	_, ok := m.s[url]
	return ok
}

// standingRow renders an answer row the way the standing-query registry
// renders tuples in its deltas: "<A: v, B: w>".
func standingRow(attrs []string, key string) string {
	vals := strings.Split(key, "\x1f")
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = attrs[i] + ": " + v
	}
	return "<" + strings.Join(parts, ", ") + ">"
}
