// Command app consumes the fixture's lib.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	r := &lib.Registry[int]{}
	r.Add(1)
	fmt.Println(lib.Total([]lib.Shape{lib.Square{Side: 2}}), lib.CodeOf(lib.Fail()), r.Get(0),
		lib.Run(lib.Config{Limit: 3}), lib.Uses())
}
