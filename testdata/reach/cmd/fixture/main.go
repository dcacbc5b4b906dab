package main

import (
	"fmt"

	"fixture/internal/a"
)

func main() {
	var r a.Runner = a.Impl{}
	fmt.Println(a.Live{}.Len(), a.NewDead(1), a.Config{Size: 2}.Total(), r.Run())
}
