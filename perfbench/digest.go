package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// simDigest hashes the canonical rendering of a value: the simulated
// outputs of an outcome, which repeat exactly for a seed. Host time never
// enters an outcome, so equal seeds must give equal digests.
func simDigest(v any) string {
	var b strings.Builder
	canon(&b, reflect.ValueOf(v))
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// canon renders v deterministically: struct fields in declaration order,
// map entries sorted by their rendered keys, pointers followed, floats by
// their exact bits so no digit is lost to formatting.
func canon(b *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Invalid:
		b.WriteString("nil")
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		canon(b, v.Elem())
	case reflect.Struct:
		t := v.Type()
		b.WriteByte('{')
		for i := 0; i < v.NumField(); i++ {
			b.WriteString(t.Field(i).Name)
			b.WriteByte(':')
			canon(b, v.Field(i))
			b.WriteByte(';')
		}
		b.WriteByte('}')
	case reflect.Slice, reflect.Array:
		b.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			canon(b, v.Index(i))
			b.WriteByte(',')
		}
		b.WriteByte(']')
	case reflect.Map:
		type entry struct{ k, v string }
		entries := make([]entry, 0, v.Len())
		it := v.MapRange()
		for it.Next() {
			var kb, vb strings.Builder
			canon(&kb, it.Key())
			canon(&vb, it.Value())
			entries = append(entries, entry{kb.String(), vb.String()})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].k < entries[j].k })
		b.WriteByte('<')
		for _, e := range entries {
			b.WriteString(e.k)
			b.WriteByte('=')
			b.WriteString(e.v)
			b.WriteByte(',')
		}
		b.WriteByte('>')
	case reflect.Float32, reflect.Float64:
		b.WriteString(strconv.FormatUint(math.Float64bits(v.Float()), 16))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		b.WriteString(strconv.FormatUint(v.Uint(), 10))
	case reflect.Bool:
		b.WriteString(strconv.FormatBool(v.Bool()))
	case reflect.String:
		b.WriteString(strconv.Quote(v.String()))
	default:
		// Channels and funcs carry no simulated output; naming the kind
		// keeps the rendering total without hashing an address.
		fmt.Fprintf(b, "<%s>", v.Kind())
	}
}
