module declust/benchmark

go 1.22

require declust v0.0.0

replace declust => ../
