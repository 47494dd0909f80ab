package records

import (
	"fmt"
	"strings"
)

// Field is one column of a schema.
type Field struct {
	Name string
	Kind Kind
}

// Schema describes the ordered, named, typed columns of a record stream.
// Schemas are immutable after construction and safe for concurrent use.
type Schema struct {
	fields []Field
	index  map[string]int
}

// NewSchema builds a schema from the given fields. Field names must be
// unique; NewSchema panics otherwise (schemas are built from program
// constants, not user input).
func NewSchema(fields ...Field) *Schema {
	s := &Schema{
		fields: append([]Field(nil), fields...),
		index:  make(map[string]int, len(fields)),
	}
	for i, f := range s.fields {
		if f.Name == "" {
			panic("records: empty field name")
		}
		if _, dup := s.index[f.Name]; dup {
			panic("records: duplicate field name " + f.Name)
		}
		s.index[f.Name] = i
	}
	return s
}

// F is shorthand for constructing a Field.
func F(name string, kind Kind) Field { return Field{Name: name, Kind: kind} }

// Len returns the number of fields.
func (s *Schema) Len() int { return len(s.fields) }

// Field returns the i-th field.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// Fields returns a copy of the field list.
func (s *Schema) Fields() []Field { return append([]Field(nil), s.fields...) }

// Index returns the position of the named field, or -1 if absent.
func (s *Schema) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Has reports whether the schema contains the named field.
func (s *Schema) Has(name string) bool { _, ok := s.index[name]; return ok }

// MustIndex returns the position of the named field and panics if absent.
func (s *Schema) MustIndex(name string) int {
	i, ok := s.index[name]
	if !ok {
		panic(fmt.Sprintf("records: schema %v has no field %q", s, name))
	}
	return i
}

// Names returns the field names in order.
func (s *Schema) Names() []string {
	names := make([]string, len(s.fields))
	for i, f := range s.fields {
		names[i] = f.Name
	}
	return names
}

// Project returns a new schema containing the named fields, in the given
// order. It returns an error if any name is absent.
func (s *Schema) Project(names ...string) (*Schema, error) {
	fields := make([]Field, 0, len(names))
	for _, n := range names {
		i := s.Index(n)
		if i < 0 {
			return nil, fmt.Errorf("records: schema has no field %q", n)
		}
		fields = append(fields, s.fields[i])
	}
	return NewSchema(fields...), nil
}

// Equal reports whether two schemas have identical field lists.
func (s *Schema) Equal(o *Schema) bool {
	if s == o {
		return true
	}
	if o == nil || len(s.fields) != len(o.fields) {
		return false
	}
	for i := range s.fields {
		if s.fields[i] != o.fields[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "(name kind, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range s.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.Name)
		b.WriteByte(' ')
		b.WriteString(f.Kind.String())
	}
	b.WriteByte(')')
	return b.String()
}
