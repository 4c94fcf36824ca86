package obs

import (
	"strings"
	"testing"
)

func TestNameEscapesLabelValues(t *testing.T) {
	cases := []struct {
		value string
		want  string
	}{
		{`plain`, `x_total{msg="plain"}`},
		{`say "hi"`, `x_total{msg="say \"hi\""}`},
		{`back\slash`, `x_total{msg="back\\slash"}`},
		{"two\nlines", `x_total{msg="two\nlines"}`},
		{"all\" three\\\n", `x_total{msg="all\" three\\\n"}`},
	}
	for _, c := range cases {
		if got := Name("x_total", "msg", c.value); got != c.want {
			t.Errorf("Name(%q) = %s, want %s", c.value, got, c.want)
		}
	}
}

// TestWritePrometheusEscapedLabel pins the exposition output for a
// metric whose label value contains a quote, a backslash, and a newline:
// the sample must stay on a single well-formed line with the value
// escaped.
func TestWritePrometheusEscapedLabel(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(Name("demo_total", "msg", "say \"hi\"\\\n")).Add(1)
	var b strings.Builder
	reg.WritePrometheus(&b)
	want := "# TYPE demo_total counter\n" + `demo_total{msg="say \"hi\"\\\n"} 1` + "\n"
	if b.String() != want {
		t.Errorf("WritePrometheus:\n%q\nwant:\n%q", b.String(), want)
	}
}
