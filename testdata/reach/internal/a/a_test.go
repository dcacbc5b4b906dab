package a

import "testing"

func TestDeadLen(t *testing.T) {
	if NewDead(2).Len() != 2 {
		t.Fatal("Len")
	}
}
