// Package orphan is imported by nothing.
package orphan

// Hello is an exported function of a package nothing imports.
func Hello() string { return "hello" }
