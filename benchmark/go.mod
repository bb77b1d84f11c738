module ditto/benchmark

go 1.24

require ditto v0.0.0

replace ditto => ../
