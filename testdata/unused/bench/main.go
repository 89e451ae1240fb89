// Command bench is a caller in a second module, as perfbench/ is.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() { fmt.Println(lib.BenchOnly()) }
