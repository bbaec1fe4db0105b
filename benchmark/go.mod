module dmpstream/benchmark

go 1.22

require dmpstream v0.0.0

replace dmpstream => ../
