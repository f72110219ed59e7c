module lintfixture/nested

go 1.22
