package main

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := newTable("Demo", "name", "value")
	tb.Row("alpha", 1)
	tb.Row("beta", 3.14159)
	var sb strings.Builder
	tb.Write(&sb)
	want := "Demo\n" +
		"name   value\n" +
		"------------\n" +
		"alpha  1    \n" +
		"beta   3.142\n"
	if sb.String() != want {
		t.Errorf("got\n%s\nwant\n%s", sb.String(), want)
	}
}
