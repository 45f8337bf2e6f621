package main

import (
	"reflect"
	"testing"
)

func TestParseSizesValid(t *testing.T) {
	cases := []struct {
		in   string
		want []int
	}{
		{"4", []int{4}},
		{"4,8,16,24", []int{4, 8, 16, 24}},
		{" 4 , 8 ", []int{4, 8}},
		{"8,4", []int{8, 4}},            // order preserved
		{"4,8,4,8,16", []int{4, 8, 16}}, // duplicates dropped
		{"1,4", []int{1, 4}},            // 1 is legal (E11 shard counts; others clamp to MinSize)
		{"", nil},                       // empty = per-experiment defaults
		{"   ", nil},                    // blank = per-experiment defaults
	}
	for _, c := range cases {
		got, err := parseSizes(c.in)
		if err != nil {
			t.Errorf("parseSizes(%q): unexpected error %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseSizes(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseSizesInvalid(t *testing.T) {
	for _, in := range []string{"x", "4,x", "4,,8", "0", "-3", "3.5"} {
		if got, err := parseSizes(in); err == nil {
			t.Errorf("parseSizes(%q) = %v, want error", in, got)
		}
	}
}

func TestParseOnly(t *testing.T) {
	if got := parseOnly(""); got != nil {
		t.Errorf("parseOnly(\"\") = %v, want nil", got)
	}
	if got := parseOnly("   "); got != nil {
		t.Errorf("parseOnly(blank) = %v, want nil", got)
	}
	got := parseOnly("e2, E8 ,e2")
	want := map[string]bool{"E2": true, "E8": true}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseOnly(\"e2, E8 ,e2\") = %v, want %v", got, want)
	}
}
